package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"ssr/internal/model"
)

func mustTracker(t *testing.T, cfg Config, m, n int, final bool) *PhaseTracker {
	t.Helper()
	tr, err := NewPhaseTracker(cfg, m, n, final)
	if err != nil {
		t.Fatalf("NewPhaseTracker: %v", err)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "disabled always valid", cfg: Config{IsolationP: -5}, wantErr: false},
		{name: "default", cfg: DefaultConfig(), wantErr: false},
		{name: "P zero", cfg: Config{Enabled: true, IsolationP: 0, Alpha: 1.6}, wantErr: true},
		{name: "P above one", cfg: Config{Enabled: true, IsolationP: 1.5, Alpha: 1.6}, wantErr: true},
		{name: "P NaN", cfg: Config{Enabled: true, IsolationP: math.NaN(), Alpha: 1.6}, wantErr: true},
		{name: "alpha too small with deadline", cfg: Config{Enabled: true, IsolationP: 0.5, Alpha: 1.0}, wantErr: true},
		{name: "alpha irrelevant when P=1", cfg: Config{Enabled: true, IsolationP: 1, Alpha: 0.5}, wantErr: false},
		{name: "R negative", cfg: Config{Enabled: true, IsolationP: 1, Alpha: 1.6, PreReserveThreshold: -0.1}, wantErr: true},
		{name: "R above one", cfg: Config{Enabled: true, IsolationP: 1, Alpha: 1.6, PreReserveThreshold: 1.1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if gotErr := err != nil; gotErr != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewPhaseTrackerValidation(t *testing.T) {
	if _, err := NewPhaseTracker(DefaultConfig(), 0, 1, false); err == nil {
		t.Error("m=0 should error")
	}
	if _, err := NewPhaseTracker(DefaultConfig(), 4, -2, false); err == nil {
		t.Error("n=-2 should error")
	}
	if _, err := NewPhaseTracker(Config{Enabled: true, IsolationP: 2}, 4, 4, false); err == nil {
		t.Error("invalid config should propagate")
	}
}

// TestInitResetsInPlace: Init on a used tracker, embedded by value in a
// larger block, leaves exactly what NewPhaseTracker returns, and a refused
// Init leaves the tracker as it was.
func TestInitResetsInPlace(t *testing.T) {
	var block [2]PhaseTracker
	tr := &block[1]
	if err := tr.Init(DefaultConfig(), 6, 2, false); err != nil {
		t.Fatal(err)
	}
	tr.HandleCompletion()
	tr.ExpireDeadline()
	used := *tr
	if err := tr.Init(DefaultConfig(), 0, 2, false); err == nil || *tr != used {
		t.Errorf("refused Init: err %v, tracker %+v, want it untouched %+v", err, *tr, used)
	}
	if err := tr.Init(DefaultConfig(), 4, 3, false); err != nil {
		t.Fatal(err)
	}
	if want := mustTracker(t, DefaultConfig(), 4, 3, false); *tr != *want {
		t.Errorf("Init left %+v, NewPhaseTracker gives %+v", *tr, *want)
	}
	if block[0] != (PhaseTracker{}) {
		t.Errorf("Init wrote outside its tracker: %+v", block[0])
	}
}

func TestDisabledAlwaysReleases(t *testing.T) {
	tr := mustTracker(t, Disabled(), 4, 4, false)
	for i := 0; i < 4; i++ {
		d, extra := tr.HandleCompletion()
		if d != Release || extra != 0 {
			t.Fatalf("disabled SSR: decision = %v/%d, want release/0", d, extra)
		}
	}
	if !tr.Done() {
		t.Error("tracker should be done after m completions")
	}
}

func TestFinalPhaseReleases(t *testing.T) {
	tr := mustTracker(t, DefaultConfig(), 3, 0, true)
	for i := 0; i < 3; i++ {
		if d, _ := tr.HandleCompletion(); d != Release {
			t.Fatal("final phase must release slots (Algorithm 1, line 2-3)")
		}
	}
}

func TestUnknownParallelismReservesAll(t *testing.T) {
	tr := mustTracker(t, DefaultConfig(), 4, UnknownParallelism, false)
	for i := 0; i < 4; i++ {
		d, extra := tr.HandleCompletion()
		if d != Reserve || extra != 0 {
			t.Fatalf("case 1: decision = %v/%d, want reserve/0", d, extra)
		}
	}
}

func TestEqualParallelismReservesAll(t *testing.T) {
	tr := mustTracker(t, DefaultConfig(), 4, 4, false)
	for i := 0; i < 4; i++ {
		if d, _ := tr.HandleCompletion(); d != Reserve {
			t.Fatal("case 2.1 (m == n): every slot should be reserved")
		}
	}
}

func TestDecreasingParallelismReleasesFirstFinishers(t *testing.T) {
	// m=6, n=2: the first 4 finishers release, the last 2 reserve.
	tr := mustTracker(t, DefaultConfig(), 6, 2, false)
	var decisions []Decision
	for i := 0; i < 6; i++ {
		d, extra := tr.HandleCompletion()
		if extra != 0 {
			t.Fatalf("case 2.2 should never pre-reserve, got %d", extra)
		}
		decisions = append(decisions, d)
	}
	for i := 0; i < 4; i++ {
		if decisions[i] != Release {
			t.Errorf("finisher %d: %v, want release", i, decisions[i])
		}
	}
	for i := 4; i < 6; i++ {
		if decisions[i] != Reserve {
			t.Errorf("finisher %d: %v, want reserve", i, decisions[i])
		}
	}
}

func TestIncreasingParallelismPreReserves(t *testing.T) {
	// m=4, n=10, R=0.5: every completion reserves; after the 3rd
	// completion (fraction 0.75 > 0.5) pre-reserve 6 extra slots, once.
	cfg := DefaultConfig()
	cfg.PreReserveThreshold = 0.5
	tr := mustTracker(t, cfg, 4, 10, false)
	var extras []int
	for i := 0; i < 4; i++ {
		d, extra := tr.HandleCompletion()
		if d != Reserve {
			t.Fatalf("completion %d: %v, want reserve", i, d)
		}
		extras = append(extras, extra)
	}
	if extras[0] != 0 || extras[1] != 0 {
		t.Errorf("pre-reserve fired too early: %v", extras)
	}
	if extras[2] != 6 {
		t.Errorf("pre-reserve at 3rd completion = %d, want 6", extras[2])
	}
	if extras[3] != 0 {
		t.Errorf("pre-reserve fired twice: %v", extras)
	}
}

func TestPreReserveThresholdBoundary(t *testing.T) {
	// fraction must strictly exceed R (Algorithm 1 line 16: >).
	cfg := DefaultConfig()
	cfg.PreReserveThreshold = 0.5
	tr := mustTracker(t, cfg, 2, 4, false)
	if _, extra := tr.HandleCompletion(); extra != 0 {
		t.Error("fraction 0.5 == R must not trigger pre-reservation")
	}
	if _, extra := tr.HandleCompletion(); extra != 2 {
		t.Error("fraction 1.0 > R must trigger pre-reservation of n-m")
	}
}

func TestPreReserveThresholdZeroFiresImmediately(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreReserveThreshold = 0
	tr := mustTracker(t, cfg, 4, 6, false)
	if _, extra := tr.HandleCompletion(); extra != 2 {
		t.Errorf("R=0: first completion should pre-reserve 2, got %d", extra)
	}
}

func TestHandleExtraSlotFreed(t *testing.T) {
	// Extra slots follow the same budget: with m=3, n=1 there are 2
	// releases available in total across primary and extra slots.
	tr := mustTracker(t, DefaultConfig(), 3, 1, false)
	if d, _ := tr.HandleCompletion(); d != Release {
		t.Fatal("first completion should release")
	}
	if d := tr.HandleExtraSlotFreed(); d != Release {
		t.Fatal("extra slot should consume the second release")
	}
	if d, _ := tr.HandleCompletion(); d != Reserve {
		t.Fatal("release budget exhausted; should reserve")
	}
	if d := tr.HandleExtraSlotFreed(); d != Reserve {
		t.Fatal("extra slot after budget exhausted should reserve")
	}
}

func TestHandleExtraSlotFreedDisabledAndFinal(t *testing.T) {
	tr := mustTracker(t, Disabled(), 2, 2, false)
	if d := tr.HandleExtraSlotFreed(); d != Release {
		t.Error("disabled: extra slot should release")
	}
	tr2 := mustTracker(t, DefaultConfig(), 2, 0, true)
	if d := tr2.HandleExtraSlotFreed(); d != Release {
		t.Error("final phase: extra slot should release")
	}
}

func TestDeadlineDerivation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IsolationP = 0.9
	cfg.Alpha = 1.6
	tr := mustTracker(t, cfg, 20, 20, false)
	first := 2 * time.Second
	d, ok := tr.Deadline(first)
	if !ok {
		t.Fatal("deadline should apply when P < 1")
	}
	want := model.Deadline(0.9, 2, 1.6, 20)
	got := d.Seconds()
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("deadline = %vs, want %vs", got, want)
	}
	if d <= first {
		t.Errorf("deadline %v should exceed the first task duration %v", d, first)
	}
}

func TestDeadlineDisabledCases(t *testing.T) {
	// P = 1: no deadline.
	tr := mustTracker(t, DefaultConfig(), 20, 20, false)
	if _, ok := tr.Deadline(time.Second); ok {
		t.Error("P=1 should have no deadline")
	}
	// SSR disabled: no deadline.
	tr2 := mustTracker(t, Disabled(), 20, 20, false)
	if _, ok := tr2.Deadline(time.Second); ok {
		t.Error("disabled SSR should have no deadline")
	}
	// Final phase: no deadline.
	cfg := DefaultConfig()
	cfg.IsolationP = 0.5
	tr3 := mustTracker(t, cfg, 20, 0, true)
	if _, ok := tr3.Deadline(time.Second); ok {
		t.Error("final phase should have no deadline")
	}
}

func TestExpireDeadlineDegradesToRelease(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IsolationP = 0.5
	tr := mustTracker(t, cfg, 4, 4, false)
	if d, _ := tr.HandleCompletion(); d != Reserve {
		t.Fatal("pre-expiry completion should reserve")
	}
	tr.ExpireDeadline()
	if !tr.DeadlineExpired() {
		t.Error("DeadlineExpired should report true")
	}
	if d, _ := tr.HandleCompletion(); d != Release {
		t.Error("post-expiry completion should release")
	}
	if d := tr.HandleExtraSlotFreed(); d != Release {
		t.Error("post-expiry extra slot should release")
	}
	if tr.ShouldMitigate(1, 5) {
		t.Error("post-expiry mitigation should be off")
	}
}

func TestShouldMitigate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MitigateStragglers = true
	tr := mustTracker(t, cfg, 4, 4, false)
	tests := []struct {
		ongoing, reserved int
		want              bool
	}{
		{ongoing: 2, reserved: 2, want: true},
		{ongoing: 2, reserved: 3, want: true},
		{ongoing: 3, reserved: 2, want: false},
		{ongoing: 0, reserved: 4, want: false},
	}
	for _, tt := range tests {
		if got := tr.ShouldMitigate(tt.ongoing, tt.reserved); got != tt.want {
			t.Errorf("ShouldMitigate(%d, %d) = %v, want %v", tt.ongoing, tt.reserved, got, tt.want)
		}
	}
	// Off when the feature flag is off.
	tr2 := mustTracker(t, DefaultConfig(), 4, 4, false)
	if tr2.ShouldMitigate(1, 4) {
		t.Error("mitigation flag off: should not mitigate")
	}
}

func TestDecisionString(t *testing.T) {
	if Release.String() != "release" || Reserve.String() != "reserve" {
		t.Error("decision strings wrong")
	}
	if Decision(9).String() == "" {
		t.Error("unknown decision should stringify")
	}
}

// Property: across any m, n the number of Release decisions over a full
// phase equals max(m-n, 0) when n is known (and 0 extra beyond the primary
// completions), and 0 releases when n >= m or unknown; the total number of
// pre-reserved slots is max(n-m, 0).
func TestAlgorithmOneInvariant(t *testing.T) {
	prop := func(mRaw, nRaw uint8, unknown bool) bool {
		m := int(mRaw)%30 + 1
		n := int(nRaw) % 40
		cfg := DefaultConfig()
		nn := n
		if unknown {
			nn = UnknownParallelism
		}
		tr, err := NewPhaseTracker(cfg, m, nn, false)
		if err != nil {
			return false
		}
		releases, preReserved := 0, 0
		for i := 0; i < m; i++ {
			d, extra := tr.HandleCompletion()
			if d == Release {
				releases++
			}
			preReserved += extra
		}
		if !tr.Done() {
			return false
		}
		if unknown {
			return releases == 0 && preReserved == 0
		}
		wantReleases := 0
		if n > 0 && m > n {
			wantReleases = m - n
		}
		wantPre := 0
		if n > m {
			wantPre = n - m
		}
		// n == 0 with final=false is treated as n known and smaller
		// than m: all slots release... except Algorithm 1 treats n=0
		// as m > n, releasing every slot.
		if n == 0 {
			wantReleases = m
		}
		return releases == wantReleases && preReserved == wantPre
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
