package driver

import (
	"runtime"
	"testing"
	"time"

	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/obs"
	"ssr/internal/stats"
	"ssr/internal/workload"
)

// forgetAtEnd returns an OnEvent hook that drops every job from the driver
// inside its own terminal event — what an online job store does — plus the
// list of IDs it forgot.
func forgetAtEnd(t *testing.T, d **Driver) (func(Event), *[]dag.JobID) {
	var forgotten []dag.JobID
	return func(ev Event) {
		if ev.Type != EventJobDone && ev.Type != EventJobFail {
			return
		}
		if err := (*d).Forget(ev.Job); err != nil {
			t.Errorf("Forget(%d) inside its terminal event: %v", ev.Job, err)
		}
		forgotten = append(forgotten, ev.Job)
	}, &forgotten
}

// TestPhaseStateReleasedAtBarrier pins the lifetime rule: a phase's runtime
// state is reachable from its job exactly while its task set is schedulable,
// both blocks appear at activation, and a finished job holds neither.
func TestPhaseStateReleasedAtBarrier(t *testing.T) {
	var d *Driver
	live := map[int]bool{}
	e := newEnv(t, 2, 2, Options{Mode: ModeSSR, SSR: core.DefaultConfig(), OnEvent: func(ev Event) {
		jr := d.jobsByID[ev.Job]
		switch ev.Type {
		case EventJobStart:
			if len(jr.phases) != 3 || len(jr.tasks) != 6 {
				t.Errorf("activated job has %d phase and %d task records, want 3 and 6", len(jr.phases), len(jr.tasks))
			}
		case EventPhaseStart:
			live[ev.Phase] = true
		case EventPhaseDone:
			// Still readable inside its own PhaseDone event, gone right after.
			if jr.schedulable(ev.Phase) == nil {
				t.Errorf("phase %d released before its PhaseDone event", ev.Phase)
			}
			delete(live, ev.Phase)
		case EventAttemptStart:
			for pid := -1; pid <= len(jr.phases); pid++ {
				pr := jr.schedulable(pid)
				if (pr != nil) != live[pid] {
					t.Errorf("phase %d reachable=%v, schedulable=%v", pid, pr != nil, live[pid])
				}
				if pr != nil && (pr.phase.ID != pid || len(pr.tasks()) != pr.phase.Parallelism()) {
					t.Errorf("phase %d resolves to phase %d with %d task records", pid, pr.phase.ID, len(pr.tasks()))
				}
			}
			// A cleared barrier also dropped what the phase owned on the side.
			for pid := range jr.phases {
				if pr := &jr.phases[pid]; !pr.open && (pr.preferred != nil || pr.prefSet != nil ||
					pr.taskPref != nil || pr.prefBySlot != nil || pr.pending != nil) {
					t.Errorf("phase %d keeps its preference lists while not schedulable", pid)
				}
			}
		}
	}})
	d = e.d
	job := chain(t, 1, "j", 5, []dag.PhaseSpec{
		{Durations: durations(1, 2)}, {Durations: durations(1, 1, 1)}, {Durations: durations(2)},
	}, dag.WithSubmit(sec(1)))
	e.mustSubmit(t, job)
	jr := e.d.jobsByID[1]
	if jr.phases != nil || jr.tasks != nil {
		t.Error("runtime blocks allocated at Submit, before the job's arrival")
	}
	e.mustRun(t)
	if jr.phases != nil || jr.tasks != nil || jr.loanGrants != nil {
		t.Errorf("finished job keeps phases=%v tasks=%v loanGrants=%v", jr.phases, jr.tasks, jr.loanGrants)
	}
	if jr.schedulable(0) != nil {
		t.Error("a finished job still resolves a phase")
	}
	if st, ok := e.d.Result(1); !ok || st.TasksRun != 6 || st.Job == nil {
		t.Errorf("residue of a finished job = %+v, %v", st, ok)
	}
	if p, ok := e.d.Progress(1); !ok || !p.Finished || p.PhasesDone != 3 || len(p.Phases) != 0 {
		t.Errorf("Progress of a finished job = %+v, %v", p, ok)
	}
	if len(e.d.live) != 0 || e.d.Unfinished() != 0 {
		t.Errorf("live set holds %d jobs after the run", len(e.d.live))
	}
	e.checkClean(t)
}

// TestForgetLifecycle: Forget is refused while a job is live, and once a
// finished job is forgotten every accessor reports it unknown instead of
// touching freed state.
func TestForgetLifecycle(t *testing.T) {
	e := newEnv(t, 1, 2, Options{})
	e.mustSubmit(t,
		chain(t, 1, "a", 5, []dag.PhaseSpec{{Durations: durations(1)}}),
		chain(t, 2, "b", 5, []dag.PhaseSpec{{Durations: durations(5)}}, dag.WithSubmit(sec(1))))
	if err := e.d.Forget(1); err == nil {
		t.Error("Forget of a job that has not started was not refused")
	}
	if err := e.eng.RunUntil(sec(2)); err != nil {
		t.Fatal(err)
	}
	if err := e.d.Forget(2); err == nil {
		t.Error("Forget of a running job was not refused")
	}
	if err := e.d.Forget(1); err != nil {
		t.Errorf("Forget of a finished job: %v", err)
	}
	if err := e.d.Forget(1); err != nil {
		t.Errorf("second Forget: %v", err)
	}
	if err := e.d.Forget(99); err != nil {
		t.Errorf("Forget of an unknown job: %v", err)
	}
	if _, ok := e.d.Result(1); ok {
		t.Error("Result still finds a forgotten job")
	}
	if _, ok := e.d.Progress(1); ok {
		t.Error("Progress still finds a forgotten job")
	}
	if err := e.d.Abort(1); err == nil {
		t.Error("Abort of a forgotten job reported success")
	}
	e.d.ResolveLoan(1, 0, 0) // no lender, nothing granted: must simply return
	e.mustRun(t)
	if rs := e.d.Results(); len(rs) != 1 || rs[0].Job.ID != 2 {
		t.Errorf("Results after forgetting job 1 = %+v", rs)
	}
	if got := e.d.Makespan(); got != sec(6) {
		t.Errorf("Makespan = %v, want 6s (forgetting must not lose it)", got)
	}
	e.checkClean(t)
}

// TestMakespanCountsAbortedJobs keeps the running maximum honest on the
// abort path.
func TestMakespanCountsAbortedJobs(t *testing.T) {
	e := newEnv(t, 1, 1, Options{})
	e.mustSubmit(t, chain(t, 1, "a", 5, []dag.PhaseSpec{{Durations: durations(10)}}))
	if err := e.eng.RunUntil(sec(3)); err != nil {
		t.Fatal(err)
	}
	if err := e.d.Abort(1); err != nil {
		t.Fatal(err)
	}
	if got := e.d.Makespan(); got != sec(3) {
		t.Errorf("Makespan after abort at 3s = %v", got)
	}
	if p, _ := e.d.Progress(1); !p.Failed || len(p.Phases) != 0 {
		t.Errorf("Progress of an aborted job after its terminal event = %+v", p)
	}
}

// TestAbortedPhasesVisibleInsideTerminalEvent: the phases an abort cut short
// are still listed by Progress from inside EventJobFail (the service
// snapshots its final wire status there) and released right after.
func TestAbortedPhasesVisibleInsideTerminalEvent(t *testing.T) {
	var d *Driver
	var inside Progress
	e := newEnv(t, 1, 2, Options{OnEvent: func(ev Event) {
		if ev.Type == EventJobFail {
			inside, _ = d.Progress(ev.Job)
		}
	}})
	d = e.d
	e.mustSubmit(t, chain(t, 1, "a", 5, []dag.PhaseSpec{{Durations: durations(4, 9, 9)}, {Durations: durations(1)}}))
	if err := e.eng.RunUntil(sec(5)); err != nil {
		t.Fatal(err)
	}
	if err := e.d.Abort(1); err != nil {
		t.Fatal(err)
	}
	if len(inside.Phases) != 1 || inside.Phases[0].TasksDone != 1 || inside.Phases[0].Tasks != 3 ||
		inside.Phases[0].Running != 0 || !inside.Failed {
		t.Errorf("Progress inside EventJobFail = %+v", inside)
	}
	if jr := e.d.jobsByID[1]; jr.phases != nil || jr.tasks != nil {
		t.Error("aborted job keeps its runtime blocks after its terminal event")
	}
	e.checkClean(t)
}

// returnLender is a SlotLender that grants nothing and records what comes
// back, for driving ResolveLoan from outside.
type returnLender struct{ returned [][3]int }

func (l *returnLender) Borrow(LoanRequest) (int, bool)        { return 0, false }
func (l *returnLender) Consume(dag.JobID, int) (LoanID, bool) { return LoanID{}, false }
func (l *returnLender) Unconsume(LoanID)                      {}
func (l *returnLender) Finish(LoanID)                         {}
func (l *returnLender) Return(job dag.JobID, phase, max int) int {
	l.returned = append(l.returned, [3]int{int(job), phase, max})
	return 1
}

// TestResolveLoanAfterBarrierAndForget: an asynchronous grant that lands
// after its phase's barrier cleared, for a phase the job never had, or after
// the job was forgotten goes straight home and touches no job state.
func TestResolveLoanAfterBarrierAndForget(t *testing.T) {
	var d *Driver
	lender := &returnLender{}
	hook, _ := forgetAtEnd(t, &d)
	e := newEnv(t, 1, 2, Options{Mode: ModeSSR, SSR: core.DefaultConfig(), Lender: lender, OnEvent: hook})
	d = e.d
	e.mustSubmit(t, chain(t, 1, "j", 5, []dag.PhaseSpec{{Durations: durations(1, 1)}, {Durations: durations(5)}}))
	if err := e.eng.RunUntil(sec(2)); err != nil {
		t.Fatal(err)
	}
	jr := e.d.jobsByID[1]
	if jr.schedulable(0) != nil || jr.schedulable(1) == nil {
		t.Fatal("at 2s phase 0 should be past its barrier and phase 1 running")
	}
	for _, phase := range []int{0, -1, 2, 99} {
		e.d.ResolveLoan(1, phase, 1)
	}
	if jr.borrowed != 0 || jr.stats.BorrowedSlots != 0 {
		t.Errorf("late grants were absorbed: borrowed=%d", jr.borrowed)
	}
	e.mustRun(t)
	if _, ok := e.d.Result(1); ok {
		t.Fatal("job was not forgotten at its terminal event")
	}
	e.d.ResolveLoan(1, 1, 1)
	want := [][3]int{{1, 0, -1}, {1, -1, -1}, {1, 2, -1}, {1, 99, -1}, {1, 1, -1}}
	if len(lender.returned) != len(want) {
		t.Fatalf("lender got %v back, want %v", lender.returned, want)
	}
	for i := range want {
		if lender.returned[i] != want[i] {
			t.Errorf("return %d = %v, want %v", i, lender.returned[i], want[i])
		}
	}
	e.checkClean(t)
}

// TestLateEventsAfterForget drives the paths that can still name a job after
// it ended — a timeout-mode reservation expiring, a node failing, a retry
// backoff elapsing on an aborted job — with every job forgotten at its
// terminal event.
func TestLateEventsAfterForget(t *testing.T) {
	var d *Driver
	hook, forgotten := forgetAtEnd(t, &d)
	e := newEnv(t, 2, 2, Options{
		Mode: ModeTimeout, Timeout: sec(30), OnEvent: hook,
		Retry: RetryPolicy{MaxAttempts: 2, Backoff: sec(20)},
	})
	d = e.d
	e.mustSubmit(t,
		chain(t, 1, "short", 5, []dag.PhaseSpec{{Durations: durations(1, 1)}, {Durations: durations(1)}}),
		chain(t, 2, "doomed", 5, []dag.PhaseSpec{{Durations: durations(50, 50)}}, dag.WithSubmit(sec(1))),
		chain(t, 3, "late", 1, []dag.PhaseSpec{{Durations: durations(2)}}, dag.WithSubmit(sec(100))))
	e.eng.At(sec(5), func() {
		// First failure of doomed's tasks arms 20s retry backoffs...
		if err := e.d.FailNode(0); err != nil {
			t.Error(err)
		}
		if err := e.d.FailNode(1); err != nil {
			t.Error(err)
		}
	})
	e.eng.At(sec(6), func() {
		// ...and the abort lands while they are pending.
		if err := e.d.Abort(2); err != nil {
			t.Error(err)
		}
		for n := 0; n < 2; n++ {
			if err := e.d.RecoverNode(n); err != nil {
				t.Error(err)
			}
		}
	})
	e.mustRun(t)
	if len(*forgotten) != 3 || len(e.d.jobsByID) != 0 || len(e.d.Results()) != 0 {
		t.Errorf("forgot %v, driver still knows %d jobs", *forgotten, len(e.d.jobsByID))
	}
	if got := e.d.QueuedTasks(); got != 0 {
		t.Errorf("QueuedTasks = %d with nothing live", got)
	}
	if got := e.d.Makespan(); got != sec(102) {
		t.Errorf("Makespan = %v, want 1m42s", got)
	}
	e.checkClean(t)
}

// TestForgettingIsPassive is the replay guarantee with retirement on: a run
// whose owner forgets every job at its terminal event makes the same
// decisions, byte for byte in the audit stream, as one that keeps them all.
func TestForgettingIsPassive(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.IsolationP = 0.9
	cfg.Alpha = 1.6
	cfg.MitigateStragglers = true
	run := func(forget bool) (string, time.Duration, time.Duration) {
		var d *Driver
		audit := obs.NewAudit(0)
		opts := Options{Mode: ModeSSR, SSR: cfg, Audit: audit}
		if forget {
			opts.OnEvent, _ = forgetAtEnd(t, &d)
		}
		e := newEnv(t, 4, 4, opts)
		d = e.d
		e.mustSubmit(t, adaptiveWorkload(t, 12, 1.6)...)
		e.mustRun(t)
		e.checkClean(t)
		return auditJSONL(t, audit), e.d.Makespan(), e.d.Usage().ReservedIdleTime()
	}
	keptAudit, keptSpan, keptIdle := run(false)
	gotAudit, gotSpan, gotIdle := run(true)
	if keptAudit == "" || gotAudit != keptAudit {
		t.Error("forgetting finished jobs changed the audit stream")
	}
	if gotSpan != keptSpan || gotIdle != keptIdle {
		t.Errorf("forgetting changed makespan %v -> %v or reserved-idle %v -> %v", keptSpan, gotSpan, keptIdle, gotIdle)
	}
}

// TestFinishedJobsCostAFixedResidue is the driver-level retention guard: the
// heap a kept-but-finished job pins must not scale with its task count.
func TestFinishedJobsCostAFixedResidue(t *testing.T) {
	const jobs, width = 2000, 64
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var d *Driver
	hook, _ := forgetAtEnd(t, &d)
	e := newEnv(t, 8, 8, Options{Mode: ModeSSR, SSR: core.DefaultConfig(), OnEvent: hook})
	d = e.d
	wide := make([]float64, width)
	for i := range wide {
		wide[i] = 1
	}
	submit := func(from, n int) {
		for i := from; i < from+n; i++ {
			// The job is built inside the loop and dropped with it: only what
			// the driver keeps of it stays reachable.
			e.mustSubmit(t, chain(t, dag.JobID(i+1), "w", 5, []dag.PhaseSpec{
				{Durations: durations(wide...)}, {Durations: durations(wide...)},
			}, dag.WithSubmit(e.eng.Now())))
		}
		e.mustRun(t)
	}
	submit(0, 200) // engine free lists, attempt pool, queue and cluster scratch
	before := heap()
	submit(200, jobs)
	perJob := (float64(heap()) - float64(before)) / jobs
	// One such job's runtime graph is > 10 KB (128 tasks); forgotten, it
	// should cost nothing. The slack absorbs allocator and free-list noise.
	if perJob > 64 {
		t.Errorf("driver keeps %.0f B per finished-and-forgotten job", perJob)
	}
}

// TestBareCellAllocatesPerJob is the allocation guard for the driver's own
// per-job cost: a quick-scale Sec. VI-B cell — 100 nodes, the ML and SQL
// foreground suites over 400 background jobs, SSR for the foreground, no
// sink attached — from engine construction to the end of Run. What a job
// costs here is its jobRun, its two runtime blocks, and the locality and
// preference records of its multi-phase share; the per-phase records it
// replaced (a phaseRun, a tracker and a task table per phase, two index
// slices per job, a never-released activation timer) cost 21.86 per job
// on this cell where the flat layout costs 13.51 (at full scale, 14.4 and 8.2).
func TestBareCellAllocatesPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	const fgPriority, bgPriority = 10, 1
	var cell []*dag.Job
	at := 150 * time.Second
	for i, spec := range workload.MLSuite() {
		j, err := spec.Build(dag.JobID(len(cell)+1), fgPriority, at, stats.SubStream(606, "fg-"+spec.Name, i))
		if err != nil {
			t.Fatal(err)
		}
		cell = append(cell, j)
		at += 20 * time.Second
	}
	for i, q := range workload.SQLQueries(1) {
		j, err := q.Build(dag.JobID(len(cell)+1), fgPriority, at, stats.SubStream(606, "fg-"+q.Name, i))
		if err != nil {
			t.Fatal(err)
		}
		cell = append(cell, j)
		at += 10 * time.Second
	}
	bg, err := workload.Background(workload.BackgroundConfig{
		Jobs: 400, Window: 10 * time.Minute, MeanTask: 50 * time.Second,
		Alpha: 1.6, DurationScale: 1, MaxParallelism: 60,
	}, 10000, bgPriority, stats.Stream(606, "bg"))
	if err != nil {
		t.Fatal(err)
	}
	cell = append(cell, bg...)

	run := func() float64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		e := newEnv(t, 100, 4, Options{Mode: ModeSSR, SSR: core.DefaultConfig(), ReserveMinPriority: fgPriority})
		e.mustSubmit(t, cell...)
		e.mustRun(t)
		runtime.ReadMemStats(&m1)
		e.checkClean(t)
		return float64(m1.Mallocs-m0.Mallocs) / float64(len(cell))
	}
	run() // warm the allocator's size classes off the count
	perJob := run()
	t.Logf("%d jobs: %.2f mallocs per job", len(cell), perJob)
	if perJob > 14.9 {
		t.Errorf("a bare cell costs %.2f mallocs per job, want <= 14.9", perJob)
	}
}
