package estimate

import (
	"math"
	"testing"
	"time"

	"ssr/internal/stats"
)

// feedPareto streams n Pareto(alpha, xm) task durations into class
// (tenant="") of r, returning the number of accepted fits it triggered.
func feedPareto(t *testing.T, r *Registry, class string, alpha, xm float64, n int, label string) int {
	t.Helper()
	rng := stats.Stream(7, label)
	dist := stats.Pareto{Alpha: alpha, Xm: xm}
	accepted := 0
	for i := 0; i < n; i++ {
		d := time.Duration(dist.Sample(rng) * float64(time.Second))
		if ad, ok := r.ObserveTask("", class, d); ok && ad.Accepted {
			accepted++
		}
	}
	return accepted
}

func TestConvergesToTrueTail(t *testing.T) {
	for _, alpha := range []float64{1.2, 1.6, 2.5} {
		r := New(Config{})
		feedPareto(t, r, "job", alpha, 2.0, 2000, "conv")
		k, ok := r.Knobs("", "job", 0.9)
		if !ok {
			t.Fatalf("alpha=%v: no accepted fit after 2000 samples", alpha)
		}
		if rel := math.Abs(k.Alpha-alpha) / alpha; rel > 0.15 {
			t.Errorf("alpha=%v: fitted %.3f, relative error %.2f > 0.15", alpha, k.Alpha, rel)
		}
		// The MLE scale is the window minimum; with a 256-sample window it
		// sits close above the true xm.
		if k.TmSec < 2.0 || k.TmSec > 2.0*1.5 {
			t.Errorf("alpha=%v: fitted tm %.3fs, want in [2.0, 3.0)", alpha, k.TmSec)
		}
		if k.P != 0.9 {
			t.Errorf("alpha=%v: P = %v before any outcomes, want the 0.9 target", alpha, k.P)
		}
	}
}

func TestRelearnsAfterDrift(t *testing.T) {
	r := New(Config{})
	feedPareto(t, r, "job", 2.5, 2.0, 1500, "pre")
	k, ok := r.Knobs("", "job", 0.9)
	if !ok || math.Abs(k.Alpha-2.5)/2.5 > 0.15 {
		t.Fatalf("pre-drift fit = %+v (ok=%v), want alpha near 2.5", k, ok)
	}
	// The tail shifts heavier mid-run; once the window flushes the old
	// samples the fit must follow.
	feedPareto(t, r, "job", 1.2, 2.0, 1500, "post")
	k, _ = r.Knobs("", "job", 0.9)
	if math.Abs(k.Alpha-1.2)/1.2 > 0.15 {
		t.Errorf("post-drift fitted alpha = %.3f, want near 1.2", k.Alpha)
	}
}

func TestKnobsUnavailableBeforeFirstFit(t *testing.T) {
	r := New(Config{})
	if _, ok := r.Knobs("", "job", 0.9); ok {
		t.Error("Knobs ok on a class with no observations")
	}
	// Below MinSamples nothing fits, however long we wait between refits.
	for i := 0; i < r.cfg.MinSamples-1; i++ {
		if _, ok := r.ObserveTask("", "job", time.Second); ok {
			t.Fatal("refit before MinSamples")
		}
	}
	if _, ok := r.Knobs("", "job", 0.9); ok {
		t.Error("Knobs ok below MinSamples")
	}
}

func TestControllerRaisesEffectivePOnMisses(t *testing.T) {
	r := New(Config{})
	for i := 0; i < 300; i++ {
		r.ObserveOutcome("", "job", 0.9, true)
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot classes = %d, want 1", len(snap))
	}
	cs := snap[0]
	if cs.HoldEWMA > 0.05 {
		t.Errorf("holdEWMA = %.3f after all-expired outcomes, want near 0", cs.HoldEWMA)
	}
	if cs.EffectiveP != pMax {
		t.Errorf("effective P = %.4f after chronic misses, want saturated at pMax %.4f",
			cs.EffectiveP, pMax)
	}
	// Once deadlines hold again the offset bleeds back to the floor.
	for i := 0; i < 500; i++ {
		r.ObserveOutcome("", "job", 0.9, false)
	}
	cs = r.Snapshot()[0]
	if cs.EffectiveP != 0.9 {
		t.Errorf("effective P = %.4f after sustained holds, want back at the 0.9 target", cs.EffectiveP)
	}
	if cs.Armed != 800 || cs.Expired != 300 {
		t.Errorf("armed/expired = %d/%d, want 800/300", cs.Armed, cs.Expired)
	}
}

func TestCopyBudgetGatedOnStability(t *testing.T) {
	r := New(Config{})
	if b := r.CopyBudget("", "job", 10); b != 0 {
		t.Errorf("budget = %d with no fit, want 0", b)
	}
	// Two consecutive accepted fits of the same tail mark it stable.
	if fits := feedPareto(t, r, "job", 2.5, 2.0, 600, "stable"); fits < 2 {
		t.Fatalf("accepted fits = %d, want >= 2", fits)
	}
	snap := r.Snapshot()[0]
	if !snap.Stable {
		t.Fatalf("class not stable after %d fits of one tail", snap.Fits)
	}
	// alpha ~2.5 -> frac = 1/(alpha-0.5) ~ 0.5: budget is a fraction.
	if b := r.CopyBudget("", "job", 10); b < 4 || b > 7 {
		t.Errorf("budget = %d for 10 ongoing at alpha ~2.5, want ~5", b)
	}
	if b := r.CopyBudget("", "job", 0); b != 0 {
		t.Errorf("budget = %d with nothing ongoing, want 0", b)
	}

	// A heavy tail (alpha near 1) duplicates every ongoing task.
	heavy := New(Config{})
	feedPareto(t, heavy, "job", 1.2, 2.0, 600, "heavy")
	if !heavy.Snapshot()[0].Stable {
		t.Fatal("heavy-tail class not stable")
	}
	if b := heavy.CopyBudget("", "job", 10); b != 10 {
		t.Errorf("budget = %d for 10 ongoing at alpha ~1.2, want 10 (full duplication)", b)
	}
}

func TestPhaseEWMATracksParallelism(t *testing.T) {
	r := New(Config{})
	for i := 0; i < 50; i++ {
		r.ObservePhase("", "job", 16)
	}
	if ewma := r.Snapshot()[0].TasksEWMA; ewma != 16 {
		t.Errorf("tasks EWMA = %v after constant width 16, want 16", ewma)
	}
}

func TestSnapshotSortedByTenantClass(t *testing.T) {
	r := New(Config{})
	r.ObserveTask("t2", "b", time.Second)
	r.ObserveTask("t1", "z", time.Second)
	r.ObserveTask("t1", "a", time.Second)
	r.ObserveTask("", "m", time.Second)
	snap := r.Snapshot()
	var got []string
	for _, cs := range snap {
		got = append(got, cs.Tenant+"/"+cs.Class)
	}
	want := []string{"/m", "t1/a", "t1/z", "t2/b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot order = %v, want %v", got, want)
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := []struct{ name, want string }{
		{"bg-17", "bg"},
		{"kmeans", "kmeans"},
		{"par-3", "par"},
		{"q12-7", "q12"},
		{"tpch-12-7", "tpch-12"},
		{"-5", "-5"},
		{"", "job"},
		{"run-", "run-"},
	}
	for _, c := range cases {
		if got := ClassOf(c.name); got != c.want {
			t.Errorf("ClassOf(%q) = %q, want %q", c.name, got, c.want)
		}
	}
}
