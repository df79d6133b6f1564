package driver

import (
	"testing"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/sim"
)

// collectEvents runs the given jobs under opts and returns the emitted
// lifecycle events in order.
func collectEvents(t *testing.T, opts Options, jobs ...*dag.Job) []Event {
	t.Helper()
	var events []Event
	opts.OnEvent = func(ev Event) { events = append(events, ev) }
	eng := sim.New()
	cl, err := cluster.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(eng, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := d.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	return events
}

func twoPhaseJob(t *testing.T, id dag.JobID) *dag.Job {
	t.Helper()
	durs := func(n int, d time.Duration) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = d
		}
		return out
	}
	job, err := dag.Chain(id, "ev", 10, []dag.PhaseSpec{
		{Durations: durs(3, 2*time.Second)},
		{Durations: durs(2, time.Second)},
	}, dag.WithKnownParallelism())
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestEventCausalOrder checks the per-job ordering contract documented on
// the EventType constants: job start before phase starts, phase start
// before its attempts, attempt start before its finish, phase done after
// its last finish, job done last.
func TestEventCausalOrder(t *testing.T) {
	job := twoPhaseJob(t, 1)
	events := collectEvents(t, Options{Mode: ModeSSR,
		SSR: core.Config{Enabled: true, IsolationP: 0.9, Alpha: 1.6, PreReserveThreshold: 0.5}}, job)
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	checkCausalOrder(t, events)

	// The final event for the job must be JobDone.
	last := events[len(events)-1]
	if last.Type != EventJobDone {
		t.Errorf("last event = %v, want job_done", last.Type)
	}
	// Every one of the five tasks ran: 5 starts, 5 finishes.
	starts, finishes := 0, 0
	for _, ev := range events {
		switch ev.Type {
		case EventAttemptStart:
			starts++
		case EventAttemptFinish:
			finishes++
		}
	}
	if starts != 5 || finishes != 5 {
		t.Errorf("attempt starts/finishes = %d/%d, want 5/5", starts, finishes)
	}
}

// checkCausalOrder validates per-job causal ordering of a lifecycle event
// stream. It is shared in spirit with the service-level SSE test: the
// stream order must embed, per job, the partial order of the run.
func checkCausalOrder(t *testing.T, events []Event) {
	t.Helper()
	type jobState struct {
		started    bool
		done       bool
		phaseOpen  map[int]bool
		phaseDone  map[int]bool
		attemptsIn map[[3]int]bool // phase, task, copy(0/1)
	}
	jobs := make(map[dag.JobID]*jobState)
	get := func(id dag.JobID) *jobState {
		js := jobs[id]
		if js == nil {
			js = &jobState{
				phaseOpen:  make(map[int]bool),
				phaseDone:  make(map[int]bool),
				attemptsIn: make(map[[3]int]bool),
			}
			jobs[id] = js
		}
		return js
	}
	var lastT sim.Time
	for i, ev := range events {
		if ev.Time < lastT {
			t.Fatalf("event %d: time %v before previous %v", i, ev.Time, lastT)
		}
		lastT = ev.Time
		js := get(ev.Job)
		if js.done && ev.Type != EventUnreserve {
			t.Fatalf("event %d: %v for job %d after its terminal event", i, ev.Type, ev.Job)
		}
		key := [3]int{ev.Phase, ev.Task, 0}
		if ev.Copy {
			key[2] = 1
		}
		switch ev.Type {
		case EventJobStart:
			if js.started {
				t.Fatalf("event %d: duplicate job_start for job %d", i, ev.Job)
			}
			js.started = true
		case EventPhaseStart:
			if !js.started {
				t.Fatalf("event %d: phase_start before job_start (job %d)", i, ev.Job)
			}
			if js.phaseOpen[ev.Phase] || js.phaseDone[ev.Phase] {
				t.Fatalf("event %d: duplicate phase_start %d (job %d)", i, ev.Phase, ev.Job)
			}
			js.phaseOpen[ev.Phase] = true
		case EventAttemptStart:
			if !js.phaseOpen[ev.Phase] {
				t.Fatalf("event %d: attempt_start in unopened phase %d (job %d)", i, ev.Phase, ev.Job)
			}
			if js.attemptsIn[key] {
				t.Fatalf("event %d: duplicate attempt_start %v (job %d)", i, key, ev.Job)
			}
			js.attemptsIn[key] = true
		case EventAttemptFinish, EventAttemptKill:
			if !js.attemptsIn[key] {
				t.Fatalf("event %d: %v without attempt_start %v (job %d)", i, ev.Type, key, ev.Job)
			}
			delete(js.attemptsIn, key)
		case EventPhaseDone:
			if !js.phaseOpen[ev.Phase] {
				t.Fatalf("event %d: phase_done for unopened phase %d (job %d)", i, ev.Phase, ev.Job)
			}
			js.phaseOpen[ev.Phase] = false
			js.phaseDone[ev.Phase] = true
		case EventJobDone, EventJobFail:
			js.done = true
		}
	}
}

// TestAbortBeforeActivation aborts a job whose arrival event has not fired
// yet; the later activation — posted, so not cancelable — must not resurrect
// it, nor lay out the runtime blocks it never had.
func TestAbortBeforeActivation(t *testing.T) {
	eng := sim.New()
	cl, err := cluster.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	d, err := New(eng, cl, Options{Mode: ModeNone,
		OnEvent: func(ev Event) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	job, err := dag.Chain(9, "late", 5, []dag.PhaseSpec{
		{Durations: []time.Duration{time.Second}},
	}, dag.WithSubmit(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(job); err != nil {
		t.Fatal(err)
	}
	if p, ok := d.Progress(9); !ok || p.Finished || len(p.Phases) != 0 || p.NumPhases != 1 || d.QueuedTasks() != 0 {
		t.Errorf("before arrival: Progress %+v, %v; %d tasks queued", p, ok, d.QueuedTasks())
	}
	if err := d.Abort(9); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Type == EventJobStart || ev.Type == EventAttemptStart {
			t.Fatalf("aborted pending job emitted %v", ev.Type)
		}
	}
	if jr := d.jobsByID[9]; eng.Now() != 10*time.Second || jr.phases != nil || jr.tasks != nil {
		t.Errorf("activation at %v of an aborted job left phases=%v tasks=%v", eng.Now(), jr.phases, jr.tasks)
	}
	if got := cl.CountState(cluster.Busy); got != 0 {
		t.Errorf("busy slots = %d, want 0", got)
	}
	st, _ := d.Result(9)
	if !st.Failed {
		t.Error("pending abort should mark the job failed")
	}
}

// TestEventReservationsBalance checks reserve/unreserve pairing: over an
// SSR run every reservation placed is either consumed (task start on it) or
// explicitly canceled; the stream never unreserves a slot it did not
// reserve.
func TestEventReservationsBalance(t *testing.T) {
	jobs := []*dag.Job{twoPhaseJob(t, 1), twoPhaseJob(t, 2)}
	events := collectEvents(t, Options{Mode: ModeSSR,
		SSR: core.Config{Enabled: true, IsolationP: 0.9, Alpha: 1.6, PreReserveThreshold: 0.5}},
		jobs...)
	reserved := make(map[cluster.SlotID]dag.JobID)
	for i, ev := range events {
		switch ev.Type {
		case EventReserve:
			if owner, dup := reserved[ev.Slot]; dup {
				t.Fatalf("event %d: slot %d reserved twice (held by job %d)", i, ev.Slot, owner)
			}
			reserved[ev.Slot] = ev.Job
		case EventUnreserve:
			if owner, ok := reserved[ev.Slot]; !ok || owner != ev.Job {
				t.Fatalf("event %d: unreserve slot %d job %d without matching reserve", i, ev.Slot, ev.Job)
			}
			delete(reserved, ev.Slot)
		case EventAttemptStart:
			// Starting on a reserved slot consumes the reservation.
			delete(reserved, ev.Slot)
		}
	}
	if len(reserved) != 0 {
		t.Errorf("%d reservations never released: %v", len(reserved), reserved)
	}
}

// TestProgressSnapshot drives a job halfway and checks the Progress view.
func TestProgressSnapshot(t *testing.T) {
	eng := sim.New()
	cl, err := cluster.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(eng, cl, Options{Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	job := twoPhaseJob(t, 7)
	if err := d.Submit(job); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Progress(99); ok {
		t.Error("Progress of unknown job should report !ok")
	}
	// Step into the first phase: tasks run 2s; stop at 1s.
	if err := eng.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	p, ok := d.Progress(7)
	if !ok {
		t.Fatal("Progress(7) not found")
	}
	if p.Finished || p.PhasesDone != 0 || p.NumPhases != 2 {
		t.Errorf("mid-run progress = %+v", p)
	}
	if p.RunningSlots != 3 {
		t.Errorf("RunningSlots = %d, want 3", p.RunningSlots)
	}
	if len(p.Phases) != 1 || p.Phases[0].Running != 3 || p.Phases[0].Tasks != 3 {
		t.Errorf("phase progress = %+v", p.Phases)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	p, _ = d.Progress(7)
	if !p.Finished || p.Failed || p.PhasesDone != 2 || len(p.Phases) != 0 {
		t.Errorf("final progress = %+v", p)
	}
}

// TestAbort cuts a running job short and checks terminal state and slot
// cleanup.
func TestAbort(t *testing.T) {
	eng := sim.New()
	cl, err := cluster.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	d, err := New(eng, cl, Options{Mode: ModeNone,
		OnEvent: func(ev Event) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	job := twoPhaseJob(t, 3)
	if err := d.Submit(job); err != nil {
		t.Fatal(err)
	}
	if err := d.Abort(42); err == nil {
		t.Error("abort of unknown job should error")
	}
	if err := eng.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.Abort(3); err != nil {
		t.Fatal(err)
	}
	p, _ := d.Progress(3)
	if !p.Finished || !p.Failed {
		t.Errorf("aborted job progress = %+v", p)
	}
	if got := cl.CountState(cluster.Busy); got != 0 {
		t.Errorf("busy slots after abort = %d, want 0", got)
	}
	if d.Unfinished() != 0 {
		t.Errorf("Unfinished = %d, want 0", d.Unfinished())
	}
	last := events[len(events)-1]
	if last.Type != EventJobFail {
		t.Errorf("last event = %v, want job_fail", last.Type)
	}
	// Aborting again is a no-op.
	if err := d.Abort(3); err != nil {
		t.Errorf("second abort: %v", err)
	}
	st, _ := d.Result(3)
	if !st.Failed {
		t.Error("stats should mark the job failed")
	}
	checkCausalOrder(t, events)
}
