package driver

import (
	"runtime"
	"testing"
	"time"

	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/obs"
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
// and a finished job keeps no per-phase storage at all.
func TestPhaseStateReleasedAtBarrier(t *testing.T) {
	var d *Driver
	live := map[int]bool{}
	e := newEnv(t, 2, 2, Options{Mode: ModeSSR, SSR: core.DefaultConfig(), OnEvent: func(ev Event) {
		jr := d.jobsByID[ev.Job]
		switch ev.Type {
		case EventPhaseStart:
			live[ev.Phase] = true
		case EventPhaseDone:
			// Still readable inside its own PhaseDone event, gone right after.
			if jr.phases[ev.Phase] == nil {
				t.Errorf("phase %d released before its PhaseDone event", ev.Phase)
			}
			delete(live, ev.Phase)
		case EventAttemptStart:
			for pid, pr := range jr.phases {
				if (pr != nil) != live[pid] {
					t.Errorf("phase %d reachable=%v, schedulable=%v", pid, pr != nil, live[pid])
				}
			}
		}
	}})
	d = e.d
	e.mustSubmit(t, chain(t, 1, "j", 5, []dag.PhaseSpec{
		{Durations: durations(1, 2)}, {Durations: durations(1, 1, 1)}, {Durations: durations(2)},
	}))
	e.mustRun(t)
	jr := e.d.jobsByID[1]
	if jr.phases != nil || jr.depsLeft != nil || jr.loanGrants != nil {
		t.Errorf("finished job keeps phases=%v depsLeft=%v loanGrants=%v", jr.phases, jr.depsLeft, jr.loanGrants)
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
