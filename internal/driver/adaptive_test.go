package driver

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/estimate"
	"ssr/internal/obs"
	"ssr/internal/stats"
)

// adaptiveWorkload builds a stream of two-phase "w-<i>" jobs (one shared
// class "w") with Pareto(alpha, 2s) task durations — enough samples for
// the estimator under test to accept a fit mid-run.
func adaptiveWorkload(t *testing.T, n int, alpha float64) []*dag.Job {
	t.Helper()
	jobs := make([]*dag.Job, n)
	for i := range jobs {
		rng := stats.SubStream(11, "adaptive-test", i)
		dist := stats.Pareto{Alpha: alpha, Xm: 2}
		draw := func(k int) []time.Duration {
			out := make([]time.Duration, k)
			for j := range out {
				out[j] = time.Duration(dist.Sample(rng) * float64(time.Second))
			}
			return out
		}
		jobs[i] = chain(t, dag.JobID(i+1), "w-"+itoa(i), 10, []dag.PhaseSpec{
			{Durations: draw(8)},
			{Durations: draw(2)},
		}, dag.WithSubmit(time.Duration(i)*15*time.Second), dag.WithKnownParallelism())
	}
	return jobs
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}

// testEstimator returns an estimator sized to accept fits within a few
// jobs of the adaptiveWorkload stream.
func testEstimator() *estimate.Registry {
	return estimate.New(estimate.Config{Window: 64, MinSamples: 24, RefitEvery: 8})
}

func runAdaptiveWorkload(t *testing.T, ad AdaptiveSSR, audit *obs.Audit) *env {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.IsolationP = 0.9
	cfg.Alpha = 1.6
	e := newEnv(t, 4, 4, Options{Mode: ModeSSR, SSR: cfg, Adaptive: ad, Audit: audit})
	e.mustSubmit(t, adaptiveWorkload(t, 12, 1.6)...)
	e.mustRun(t)
	e.checkClean(t)
	return e
}

func auditJSONL(t *testing.T, a *obs.Audit) string {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.String()
}

// TestAdaptiveRunIsDeterministic re-runs the same workload with a fresh
// estimator and asserts the audit stream — knob adaptations included — is
// byte-identical: the estimator advances only on engine events, so a
// replay reproduces every adaptation exactly.
func TestAdaptiveRunIsDeterministic(t *testing.T) {
	a1, a2 := obs.NewAudit(0), obs.NewAudit(0)
	e1 := runAdaptiveWorkload(t, testEstimator(), a1)
	e2 := runAdaptiveWorkload(t, testEstimator(), a2)
	if e1.d.Makespan() != e2.d.Makespan() {
		t.Errorf("makespans diverge: %v vs %v", e1.d.Makespan(), e2.d.Makespan())
	}
	j1, j2 := auditJSONL(t, a1), auditJSONL(t, a2)
	if j1 != j2 {
		t.Error("audit streams of identical adaptive runs diverge")
	}
	if !strings.Contains(j1, `"kind":"adapt"`) {
		t.Error("no adapt events in an adaptive run's audit stream")
	}
}

// TestAdaptiveKnobProvenance follows AuditEvent.Src across the run: the
// first armed deadlines carry static knobs, and once the estimator
// accepts a fit the remaining ones carry estimated knobs with the fitted
// alpha instead of the configured one.
func TestAdaptiveKnobProvenance(t *testing.T) {
	audit := obs.NewAudit(0)
	runAdaptiveWorkload(t, testEstimator(), audit)

	var srcs []string
	var adapts, estimated int
	for _, ev := range audit.Events() {
		switch ev.Kind {
		case obs.KindDeadlineArmed:
			srcs = append(srcs, ev.Src)
			if ev.Src == SrcEstimated {
				estimated++
				if ev.Alpha == 1.6 {
					t.Errorf("estimated deadline still uses the configured alpha %v", ev.Alpha)
				}
				if ev.P < 0.9 {
					t.Errorf("estimated P = %v below the 0.9 target floor", ev.P)
				}
			}
		case obs.KindAdapt:
			adapts++
			if ev.Class != "w" {
				t.Errorf("adapt event class = %q, want %q", ev.Class, "w")
			}
			if ev.Src == estimate.ReasonFit && (ev.Alpha <= 0 || ev.Count <= 0) {
				t.Errorf("accepted adapt event missing knobs: %+v", ev)
			}
		}
	}
	if len(srcs) == 0 {
		t.Fatal("no deadline_armed events")
	}
	if srcs[0] != SrcStatic {
		t.Errorf("first deadline src = %q, want %q", srcs[0], SrcStatic)
	}
	if srcs[len(srcs)-1] != SrcEstimated {
		t.Errorf("last deadline src = %q, want %q (estimator never took over)", srcs[len(srcs)-1], SrcEstimated)
	}
	if adapts == 0 || estimated == 0 {
		t.Errorf("adapt events = %d, estimated deadlines = %d, want both > 0", adapts, estimated)
	}
}

// TestNilAdaptiveLeavesAuditBytesUnchanged guards the replay guarantee:
// without an estimator attached, no adaptive field ever serializes, so
// the audit stream is byte-identical to builds predating the hook.
func TestNilAdaptiveLeavesAuditBytesUnchanged(t *testing.T) {
	audit := obs.NewAudit(0)
	runAdaptiveWorkload(t, nil, audit)
	jsonl := auditJSONL(t, audit)
	if jsonl == "" {
		t.Fatal("empty audit stream")
	}
	for _, key := range []string{`"src"`, `"class"`, `"oldAlpha"`, `"oldP"`, `"ks"`, `"adapt"`} {
		if strings.Contains(jsonl, key) {
			t.Errorf("audit of a non-adaptive run contains %s", key)
		}
	}
}

// TestNilAdaptiveSchedulingUnchanged: attaching an estimator that is only
// observing (static knobs still in force, no copy budget consulted
// because mitigation is off) must not perturb scheduling outcomes.
func TestObservingEstimatorIsPassiveUntilFit(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.IsolationP = 0.9
	cfg.Alpha = 1.6
	// A huge MinSamples keeps the estimator observing forever: knobs stay
	// static for the whole run, so outcomes must match the bare run.
	observing := estimate.New(estimate.Config{MinSamples: 1 << 20, Window: 1 << 20})

	runs := make([][]byte, 2)
	for i, ad := range []AdaptiveSSR{nil, observing} {
		e := newEnv(t, 4, 4, Options{Mode: ModeSSR, SSR: cfg, Adaptive: ad})
		e.mustSubmit(t, adaptiveWorkload(t, 8, 1.6)...)
		e.mustRun(t)
		j, err := json.Marshal(stripJob(e.d.Results()))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = j
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Error("an observing (never-fitted) estimator changed scheduling outcomes")
	}
}

// budgetStub pins CopyBudget to a constant and ignores observations.
type budgetStub struct{ budget int }

func (s budgetStub) ObserveTask(string, string, time.Duration) (estimate.Adaptation, bool) {
	return estimate.Adaptation{}, false
}
func (s budgetStub) ObservePhase(string, string, int)             {}
func (s budgetStub) ObserveOutcome(string, string, float64, bool) {}
func (s budgetStub) Knobs(string, string, float64) (estimate.Knobs, bool) {
	return estimate.Knobs{}, false
}
func (s budgetStub) CopyBudget(string, string, int) int { return s.budget }

// TestCopyBudgetCapsMitigation drives the straggler workload under
// reserved-slot mitigation with the copy budget pinned: budget 0 forbids
// every duplicate, a large budget restores them.
func TestCopyBudgetCapsMitigation(t *testing.T) {
	copies := func(ad AdaptiveSSR) int {
		cfg := core.DefaultConfig()
		cfg.IsolationP = 0.9
		cfg.Alpha = 1.6
		cfg.MitigateStragglers = true
		e := newEnv(t, 1, 4, Options{Mode: ModeSSR, SSR: cfg, Adaptive: ad})
		e.mustSubmit(t, obsWorkload(t)...)
		e.mustRun(t)
		e.checkClean(t)
		st, ok := e.d.Result(1)
		if !ok {
			t.Fatal("missing fg result")
		}
		return st.CopiesLaunched
	}
	if got := copies(nil); got == 0 {
		t.Fatal("baseline mitigation run launched no copies; workload no longer stragglers")
	}
	if got := copies(budgetStub{budget: 0}); got != 0 {
		t.Errorf("budget 0 still launched %d copies", got)
	}
	if got := copies(budgetStub{budget: 64}); got == 0 {
		t.Error("ample budget launched no copies")
	}
}
