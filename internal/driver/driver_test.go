package driver

import (
	"testing"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/sched"
	"ssr/internal/sim"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func durations(secs ...float64) []time.Duration {
	out := make([]time.Duration, len(secs))
	for i, s := range secs {
		out[i] = sec(s)
	}
	return out
}

// env bundles a fresh engine+cluster+driver for a test.
type env struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	d   *Driver
}

func newEnv(t *testing.T, nodes, perNode int, opts Options) *env {
	t.Helper()
	eng := sim.New()
	cl, err := cluster.New(nodes, perNode)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	d, err := New(eng, cl, opts)
	if err != nil {
		t.Fatalf("driver.New: %v", err)
	}
	return &env{eng: eng, cl: cl, d: d}
}

func (e *env) mustSubmit(t *testing.T, jobs ...*dag.Job) {
	t.Helper()
	for _, j := range jobs {
		if err := e.d.Submit(j); err != nil {
			t.Fatalf("Submit(%v): %v", j, err)
		}
	}
}

func (e *env) mustRun(t *testing.T) {
	t.Helper()
	if err := e.d.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func (e *env) jct(t *testing.T, id dag.JobID) time.Duration {
	t.Helper()
	st, ok := e.d.Result(id)
	if !ok {
		t.Fatalf("missing result for job %d", id)
	}
	if st.Finish == 0 && st.Submit == 0 && st.TasksRun == 0 {
		t.Fatalf("job %d seems not to have run", id)
	}
	return st.JCT()
}

// checkClean asserts the cluster ends with no leaked busy/reserved slots
// (static mode fences excepted).
func (e *env) checkClean(t *testing.T) {
	t.Helper()
	if got := e.cl.CountState(cluster.Busy); got != 0 {
		t.Errorf("leaked %d busy slots", got)
	}
	reserved := e.cl.CountState(cluster.Reserved)
	if e.d.opts.Mode == ModeStatic {
		if reserved != e.d.opts.StaticSlots {
			t.Errorf("static partition has %d reserved slots, want %d", reserved, e.d.opts.StaticSlots)
		}
	} else if reserved != 0 {
		t.Errorf("leaked %d reserved slots", reserved)
	}
	if len(e.d.slotOwner) != 0 {
		t.Errorf("leaked %d slot owners", len(e.d.slotOwner))
	}
}

func chain(t *testing.T, id dag.JobID, name string, prio dag.Priority, phases []dag.PhaseSpec, opts ...dag.Option) *dag.Job {
	t.Helper()
	j, err := dag.Chain(id, name, prio, phases, opts...)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	return j
}

func TestSinglePhaseJobAlone(t *testing.T) {
	e := newEnv(t, 2, 2, Options{})
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{{Durations: durations(1, 2, 3, 4)}})
	e.mustSubmit(t, j)
	e.mustRun(t)
	if got, want := e.jct(t, 1), sec(4); got != want {
		t.Errorf("JCT = %v, want %v (slowest task)", got, want)
	}
	e.checkClean(t)
}

func TestChainJobAloneSumOfPhaseMaxes(t *testing.T) {
	e := newEnv(t, 2, 2, Options{})
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{
		{Durations: durations(1, 2, 3, 4)},
		{Durations: durations(2, 2, 5, 1)},
		{Durations: durations(3, 3, 3, 3)},
	})
	e.mustSubmit(t, j)
	e.mustRun(t)
	// Alone, downstream tasks land on the (now idle) preferred slots at
	// full locality: JCT = 4 + 5 + 3.
	if got, want := e.jct(t, 1), sec(12); got != want {
		t.Errorf("JCT = %v, want %v", got, want)
	}
	st, _ := e.d.Result(1)
	if st.AnyPlacements != 0 {
		t.Errorf("alone run should lose no locality, got %d penalized placements", st.AnyPlacements)
	}
	if st.TasksRun != 12 {
		t.Errorf("TasksRun = %d, want 12", st.TasksRun)
	}
	e.checkClean(t)
}

func TestBarrierEnforced(t *testing.T) {
	// Phase 1 must not start before the slowest phase-0 task finishes,
	// even with idle slots available.
	e := newEnv(t, 1, 8, Options{RecordTimeline: true})
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{
		{Durations: durations(1, 10)},
		{Durations: durations(1, 1)},
	})
	e.mustSubmit(t, j)
	e.mustRun(t)
	if got, want := e.jct(t, 1), sec(11); got != want {
		t.Errorf("JCT = %v, want %v", got, want)
	}
	tl := e.d.Timeline()
	// Between t=1 and t=10 only the straggler runs.
	if got := tl.At(1, sec(5)); got != 1 {
		t.Errorf("running at t=5 = %d, want 1 (barrier holds downstream back)", got)
	}
	e.checkClean(t)
}

func TestMultiJobWorkConservation(t *testing.T) {
	// Two equal-priority single-phase jobs share the cluster with no
	// idle slots while work is backlogged.
	e := newEnv(t, 1, 2, Options{})
	a := chain(t, 1, "a", 5, []dag.PhaseSpec{{Durations: durations(2, 2)}})
	b := chain(t, 2, "b", 5, []dag.PhaseSpec{{Durations: durations(2, 2)}})
	e.mustSubmit(t, a, b)
	e.mustRun(t)
	// Job a (earlier in queue) runs first: JCT 2; b runs 2..4.
	if got := e.jct(t, 1); got != sec(2) {
		t.Errorf("a JCT = %v, want 2s", got)
	}
	if got := e.jct(t, 2); got != sec(4) {
		t.Errorf("b JCT = %v, want 4s", got)
	}
	e.checkClean(t)
}

func TestPriorityOrdersBacklog(t *testing.T) {
	// Higher-priority job submitted later still goes first once slots
	// free up.
	e := newEnv(t, 1, 1, Options{})
	low := chain(t, 1, "low", 1, []dag.PhaseSpec{{Durations: durations(1, 5)}})
	high := chain(t, 2, "high", 9, []dag.PhaseSpec{{Durations: durations(5)}},
		dag.WithSubmit(sec(0.5)))
	e.mustSubmit(t, low, high)
	e.mustRun(t)
	// Slot runs low's first task 0..1, then high 1..6, then low's
	// second task 6..11.
	if got := e.jct(t, 2); got != sec(5.5) {
		t.Errorf("high JCT = %v, want 5.5s", got)
	}
	if got := e.jct(t, 1); got != sec(11) {
		t.Errorf("low JCT = %v, want 11s", got)
	}
	e.checkClean(t)
}

// The paper's Fig. 2 scenario: a high-priority 2-phase job loses its slots
// to a low-priority job at the barrier under work conservation, and keeps
// them under SSR.
func isolationScenario(t *testing.T, mode Mode, ssr core.Config) (fg, bg time.Duration, e *env) {
	t.Helper()
	e = newEnv(t, 1, 4, Options{Mode: mode, SSR: ssr})
	fgJob := chain(t, 1, "fg", 10, []dag.PhaseSpec{
		{Durations: durations(1, 1, 1, 10)},
		{Durations: durations(5, 5, 5, 5)},
	})
	bgJob := chain(t, 2, "bg", 1, []dag.PhaseSpec{
		{Durations: durations(20, 20, 20, 20, 20, 20, 20, 20)},
	})
	e.mustSubmit(t, fgJob, bgJob)
	e.mustRun(t)
	return e.jct(t, 1), e.jct(t, 2), e
}

func TestWorkConservingLosesIsolation(t *testing.T) {
	fg, _, e := isolationScenario(t, ModeNone, core.Config{})
	// Hand-computed under per-task locality: phase-1 task 3 runs on its
	// own slot 3 at 10-15; task 0 (slot 0 busy with a bg task until 21)
	// gives up waiting and reruns on slot 3 at the 5x penalty, 15-40;
	// tasks 1 and 2 reclaim their slots locally at 21-26. JCT 40.
	if fg != sec(40) {
		t.Errorf("fg JCT without SSR = %v, want 40s", fg)
	}
	e.checkClean(t)
}

func TestSSREnforcesIsolation(t *testing.T) {
	fg, bg, e := isolationScenario(t, ModeSSR, core.DefaultConfig())
	// With SSR the three early-freed slots stay reserved through the
	// barrier: phase 1 runs 10-15 on all four slots. JCT 15.
	if fg != sec(15) {
		t.Errorf("fg JCT with SSR = %v, want 15s", fg)
	}
	// bg then owns the cluster: 8 tasks in 2 waves from t=15: done 55.
	if bg != sec(55) {
		t.Errorf("bg JCT with SSR = %v, want 55s", bg)
	}
	e.checkClean(t)
}

func TestSSRReservedSlotsRespectedByEqualPriority(t *testing.T) {
	// An equal-priority competitor must respect reservations too.
	e := newEnv(t, 1, 2, Options{Mode: ModeSSR, SSR: core.DefaultConfig()})
	a := chain(t, 1, "a", 5, []dag.PhaseSpec{
		{Durations: durations(1, 4)},
		{Durations: durations(1, 1)},
	})
	b := chain(t, 2, "b", 5, []dag.PhaseSpec{{Durations: durations(10, 10)}})
	e.mustSubmit(t, a, b)
	e.mustRun(t)
	// Slot freed at t=1 stays reserved for a; phase 1 runs 4-5.
	if got := e.jct(t, 1); got != sec(5) {
		t.Errorf("a JCT = %v, want 5s", got)
	}
	e.checkClean(t)
}

func TestHigherPriorityOverridesReservation(t *testing.T) {
	// A strictly higher-priority job takes reserved slots.
	e := newEnv(t, 1, 2, Options{Mode: ModeSSR, SSR: core.DefaultConfig()})
	low := chain(t, 1, "low", 5, []dag.PhaseSpec{
		{Durations: durations(1, 4)},
		{Durations: durations(1, 1)},
	})
	high := chain(t, 2, "high", 9, []dag.PhaseSpec{{Durations: durations(2)}},
		dag.WithSubmit(sec(1.5)))
	e.mustSubmit(t, low, high)
	e.mustRun(t)
	// At t=1 slot 0 is reserved for low. high arrives at 1.5 and
	// overrides it: runs 1.5-3.5.
	if got := e.jct(t, 2); got != sec(2) {
		t.Errorf("high JCT = %v, want 2s (reservation overridden)", got)
	}
	// low's phase 1: barrier clears at 4; slot 1 reserved; slot 0 busy
	// with high until 3.5 then... released at 3.5, low's phase-0 is
	// still running so nothing reserves it; at t=4 phase 1 placement
	// finds slot 0 free and slot 1 reserved: runs 4-5.
	if got := e.jct(t, 1); got != sec(5) {
		t.Errorf("low JCT = %v, want 5s", got)
	}
	e.checkClean(t)
}

func TestLocalityPenaltyApplied(t *testing.T) {
	// A downstream task that cannot reach its own partition's slot
	// within the locality wait runs elsewhere at the penalty factor.
	e := newEnv(t, 1, 2, Options{
		Mode:           ModeNone,
		LocalityWait:   sec(3),
		LocalityFactor: 5,
	})
	// fg: phase 0 on both slots (1s on slot 0, 8s on slot 1); phase 1:
	// two 1s tasks, task i pinned to slot i (narrow dependency).
	fg := chain(t, 1, "fg", 10, []dag.PhaseSpec{
		{Durations: durations(1, 8)},
		{Durations: durations(1, 1)},
	})
	// bg grabs slot 0 at t=1 for 30s.
	bg := chain(t, 2, "bg", 1, []dag.PhaseSpec{{Durations: durations(30)}})
	e.mustSubmit(t, fg, bg)
	e.mustRun(t)
	// Barrier clears at 8. Task 1 runs on its slot 1 at 8-9. Task 0's
	// partition is on slot 0 (busy with bg until 31): it waits out the
	// 3s locality wait, then at t=11 takes the free slot 1 at the 5x
	// penalty, 11-16.
	st, _ := e.d.Result(1)
	if st.AnyPlacements != 1 {
		t.Errorf("AnyPlacements = %d, want 1 (task 0 lost its partition slot)", st.AnyPlacements)
	}
	if st.LocalPlacements != 3 {
		t.Errorf("LocalPlacements = %d, want 3", st.LocalPlacements)
	}
	if got := e.jct(t, 1); got != sec(16) {
		t.Errorf("fg JCT = %v, want 16s", got)
	}
	e.checkClean(t)
}

func TestLocalityPenaltyOnForeignSlot(t *testing.T) {
	// Force a true locality miss: the only slot that frees after the
	// locality wait is one that never ran the upstream phase.
	//
	// Cluster: 3 slots (A=0, B=1, C=2).
	// t=0: fg phase 0 on A (1s) and B (2s); bg0 on C (6s); bg1 queued.
	// t=1: A frees; bg1 takes it (1-41).
	// t=2: fg phase 0 done on B; phase 1 (two 10s tasks, prefer A+B):
	//      one task local on B (2-12); the other waits for A or B.
	// t=5: locality wait (3s) expires; no slot is free.
	// t=6: bg0 finishes on C; the waiting fg task takes C at the 5x
	//      penalty: 6 + 50 = 56.
	e := newEnv(t, 1, 3, Options{Mode: ModeNone, LocalityWait: sec(3), LocalityFactor: 5})
	fg := chain(t, 1, "fg", 10, []dag.PhaseSpec{
		{Durations: durations(1, 2)},
		{Durations: durations(10, 10)},
	})
	bg0 := chain(t, 2, "bg0", 1, []dag.PhaseSpec{{Durations: durations(6)}})
	bg1 := chain(t, 3, "bg1", 1, []dag.PhaseSpec{{Durations: durations(40)}})
	e.mustSubmit(t, fg, bg0, bg1)
	e.mustRun(t)
	if got := e.jct(t, 1); got != sec(56) {
		t.Errorf("fg JCT = %v, want 56s (penalized placement on a foreign slot)", got)
	}
	st, _ := e.d.Result(1)
	if st.AnyPlacements != 1 {
		t.Errorf("AnyPlacements = %d, want 1", st.AnyPlacements)
	}
	if st.LocalPlacements != 3 {
		t.Errorf("LocalPlacements = %d, want 3", st.LocalPlacements)
	}
	e.checkClean(t)
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []time.Duration {
		e := newEnv(t, 2, 2, Options{Mode: ModeSSR, SSR: core.DefaultConfig()})
		jobs := []*dag.Job{
			chain(t, 1, "a", 5, []dag.PhaseSpec{
				{Durations: durations(1, 2, 3)},
				{Durations: durations(2, 2, 2)},
			}),
			chain(t, 2, "b", 3, []dag.PhaseSpec{
				{Durations: durations(4, 4)},
				{Durations: durations(1, 1)},
			}, dag.WithSubmit(sec(0.5))),
			chain(t, 3, "c", 1, []dag.PhaseSpec{
				{Durations: durations(7, 7, 7, 7, 7)},
			}, dag.WithSubmit(sec(0.2))),
		}
		e.mustSubmit(t, jobs...)
		e.mustRun(t)
		var out []time.Duration
		for _, st := range e.d.Results() {
			out = append(out, st.JCT())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic JCT for job %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	e := newEnv(t, 1, 1, Options{})
	j := chain(t, 1, "j", 1, []dag.PhaseSpec{{Durations: durations(1)}})
	e.mustSubmit(t, j)
	if err := e.d.Submit(j); err == nil {
		t.Error("duplicate submission should error")
	}
	bad := chain(t, StaticJobID, "bad", 1, []dag.PhaseSpec{{Durations: durations(1)}})
	if err := e.d.Submit(bad); err == nil {
		t.Error("sentinel job ID should be rejected")
	}
}

func TestOptionsValidation(t *testing.T) {
	eng := sim.New()
	cl, err := cluster.New(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		opts Options
	}{
		{name: "bad locality factor", opts: Options{LocalityFactor: 0.5}},
		{name: "negative wait", opts: Options{LocalityWait: -sec(1)}},
		{name: "timeout mode without timeout", opts: Options{Mode: ModeTimeout}},
		{name: "static without size", opts: Options{Mode: ModeStatic}},
		{name: "static too large", opts: Options{Mode: ModeStatic, StaticSlots: 99}},
		{name: "bad ssr config", opts: Options{Mode: ModeSSR, SSR: core.Config{IsolationP: -1}}},
		{name: "unknown mode", opts: Options{Mode: Mode(42)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(eng, cl, tt.opts); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		ModeNone: "none", ModeSSR: "ssr", ModeTimeout: "timeout", ModeStatic: "static",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if Mode(42).String() == "" {
		t.Error("unknown mode should stringify")
	}
}

func TestAloneJCTMatchesCriticalPathWithEnoughSlots(t *testing.T) {
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{
		{Durations: durations(1, 2, 3, 4)},
		{Durations: durations(2, 2, 5, 1)},
	})
	got, err := AloneJCT(j, 2, 2, Options{})
	if err != nil {
		t.Fatalf("AloneJCT: %v", err)
	}
	if want := j.CriticalPath(); got != want {
		t.Errorf("AloneJCT = %v, want critical path %v", got, want)
	}
}

func TestAloneJCTWithFewerSlots(t *testing.T) {
	// 4 tasks of 1s on 2 slots: two waves, 2s per phase.
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{
		{Durations: durations(1, 1, 1, 1)},
	})
	got, err := AloneJCT(j, 1, 2, Options{})
	if err != nil {
		t.Fatalf("AloneJCT: %v", err)
	}
	if got != sec(2) {
		t.Errorf("AloneJCT = %v, want 2s", got)
	}
}

func TestFairQueueSplitsCluster(t *testing.T) {
	// Two map-only jobs under fair sharing each get ~half the slots.
	e := newEnv(t, 1, 4, Options{Queue: sched.NewFairQueue(), RecordTimeline: true})
	mk := func(id dag.JobID) *dag.Job {
		return chain(t, id, "j", 5, []dag.PhaseSpec{
			{Durations: durations(2, 2, 2, 2, 2, 2, 2, 2)},
		})
	}
	e.mustSubmit(t, mk(1), mk(2))
	e.mustRun(t)
	tl := e.d.Timeline()
	if got1, got2 := tl.At(1, sec(1)), tl.At(2, sec(1)); got1 != 2 || got2 != 2 {
		t.Errorf("fair shares at t=1: %d/%d, want 2/2", got1, got2)
	}
	e.checkClean(t)
}

func TestRunReportsUnfinished(t *testing.T) {
	// A directly-constructed driver whose engine drains with jobs
	// outstanding must report the failure. Simulate by submitting a job
	// at a time the engine never reaches (halt before activation is
	// impossible via public API), so instead check the error path via a
	// job whose activation is consumed but that cannot run: a cluster
	// with zero... clusters cannot be zero-sized, so exercise the happy
	// path and assert unfinished bookkeeping instead.
	e := newEnv(t, 1, 1, Options{})
	j := chain(t, 1, "j", 1, []dag.PhaseSpec{{Durations: durations(1)}})
	e.mustSubmit(t, j)
	if e.d.Unfinished() != 1 {
		t.Fatalf("unfinished = %d, want 1 before run", e.d.Unfinished())
	}
	e.mustRun(t)
	if e.d.Unfinished() != 0 {
		t.Fatalf("unfinished = %d, want 0 after run", e.d.Unfinished())
	}
	if got := e.d.Makespan(); got != sec(1) {
		t.Errorf("Makespan = %v, want 1s", got)
	}
}

func TestResultsSortedAndComplete(t *testing.T) {
	e := newEnv(t, 1, 2, Options{})
	e.mustSubmit(t,
		chain(t, 3, "c", 1, []dag.PhaseSpec{{Durations: durations(1)}}),
		chain(t, 1, "a", 1, []dag.PhaseSpec{{Durations: durations(1)}}),
		chain(t, 2, "b", 1, []dag.PhaseSpec{{Durations: durations(1)}}),
	)
	e.mustRun(t)
	rs := e.d.Results()
	if len(rs) != 3 {
		t.Fatalf("Results len = %d, want 3", len(rs))
	}
	for i, want := range []dag.JobID{1, 2, 3} {
		if rs[i].Job.ID != want {
			t.Errorf("Results[%d] = job %d, want %d", i, rs[i].Job.ID, want)
		}
	}
	if _, ok := e.d.Result(99); ok {
		t.Error("Result of unknown job should report !ok")
	}
}
