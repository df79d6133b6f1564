package cluster

import (
	"math/rand"
	"testing"
	"time"

	"ssr/internal/dag"
)

func chainJob(t *testing.T, id dag.JobID, parallelism ...int) *dag.Job {
	t.Helper()
	specs := make([]dag.PhaseSpec, len(parallelism))
	for i, p := range parallelism {
		ds := make([]time.Duration, p)
		for k := range ds {
			ds[k] = time.Second
		}
		specs[i] = dag.PhaseSpec{Durations: ds}
	}
	j, err := dag.Chain(id, "chain", 1, specs)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	return j
}

func TestLocalityRecordAndLookup(t *testing.T) {
	r := NewLocalityRegistry()
	key := PhaseKey{Job: 1, Phase: 0}
	r.Record(key, 0, 3, 3)
	r.Record(key, 1, 3, 5)
	r.Record(key, 2, 3, 3) // same slot as task 0
	got := r.SlotsFor(key)
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("SlotsFor = %v, want [3 5]", got)
	}
	tasks := r.TaskSlots(key)
	if len(tasks) != 3 || tasks[0] != 3 || tasks[1] != 5 || tasks[2] != 3 {
		t.Errorf("TaskSlots = %v, want [3 5 3]", tasks)
	}
	if r.Phases() != 1 {
		t.Errorf("Phases = %d, want 1", r.Phases())
	}
}

func TestLocalityRecordPartial(t *testing.T) {
	r := NewLocalityRegistry()
	key := PhaseKey{Job: 1, Phase: 0}
	r.Record(key, 1, 3, 7)
	tasks := r.TaskSlots(key)
	if tasks[0] != NoSlot || tasks[1] != 7 || tasks[2] != NoSlot {
		t.Errorf("TaskSlots = %v, want [NoSlot 7 NoSlot]", tasks)
	}
	// Unset entries are skipped in the distinct-slot view.
	if got := r.SlotsFor(key); len(got) != 1 || got[0] != 7 {
		t.Errorf("SlotsFor = %v, want [7]", got)
	}
	// Out-of-range indexes are ignored rather than panicking.
	r.Record(key, 99, 3, 8)
	r.Record(key, -1, 3, 8)
	if got := r.SlotsFor(key); len(got) != 1 {
		t.Errorf("out-of-range Record should be ignored, got %v", got)
	}
}

func TestPreferredSlotsRootPhase(t *testing.T) {
	r := NewLocalityRegistry()
	j := chainJob(t, 1, 2, 2)
	if got := r.PreferredSlots(j, 0); got != nil {
		t.Errorf("root phase preference = %v, want nil", got)
	}
}

func TestPreferredSlotsSingleDep(t *testing.T) {
	r := NewLocalityRegistry()
	j := chainJob(t, 1, 2, 2)
	r.Record(PhaseKey{Job: 1, Phase: 0}, 0, 2, 7)
	r.Record(PhaseKey{Job: 1, Phase: 0}, 1, 2, 9)
	got := r.PreferredSlots(j, 1)
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Errorf("PreferredSlots = %v, want [7 9]", got)
	}
}

func TestPreferredSlotsMultiDepUnion(t *testing.T) {
	r := NewLocalityRegistry()
	j, err := dag.NewJob(2, "merge", 1, []dag.PhaseSpec{
		{Durations: []time.Duration{time.Second, time.Second}},
		{Durations: []time.Duration{time.Second, time.Second}},
		{Durations: []time.Duration{time.Second}, Deps: []int{0, 1}},
	})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	r.Record(PhaseKey{Job: 2, Phase: 0}, 0, 2, 1)
	r.Record(PhaseKey{Job: 2, Phase: 0}, 1, 2, 2)
	r.Record(PhaseKey{Job: 2, Phase: 1}, 0, 2, 2) // shared slot, deduped
	r.Record(PhaseKey{Job: 2, Phase: 1}, 1, 2, 3)
	got := r.PreferredSlots(j, 2)
	if len(got) != 3 {
		t.Fatalf("PreferredSlots = %v, want 3 unique slots", got)
	}
	seen := map[SlotID]bool{}
	for _, s := range got {
		seen[s] = true
	}
	for _, want := range []SlotID{1, 2, 3} {
		if !seen[want] {
			t.Errorf("missing slot %d in %v", want, got)
		}
	}
}

func TestPreferredSlotsDifferentJobsIsolated(t *testing.T) {
	r := NewLocalityRegistry()
	j1 := chainJob(t, 1, 1, 1)
	j2 := chainJob(t, 2, 1, 1)
	r.Record(PhaseKey{Job: 1, Phase: 0}, 0, 1, 4)
	if got := r.PreferredSlots(j2, 1); got != nil {
		t.Errorf("job 2 should not see job 1's outputs, got %v", got)
	}
	if got := r.PreferredSlots(j1, 1); len(got) != 1 || got[0] != 4 {
		t.Errorf("job 1 preference = %v, want [4]", got)
	}
}

func TestNarrowPrefs(t *testing.T) {
	r := NewLocalityRegistry()
	j := chainJob(t, 1, 2, 2, 3)
	// Not recorded yet: no narrow prefs.
	if _, ok := r.NarrowPrefs(j, 1); ok {
		t.Error("NarrowPrefs before recording should fail")
	}
	r.Record(PhaseKey{Job: 1, Phase: 0}, 0, 2, 5)
	r.Record(PhaseKey{Job: 1, Phase: 0}, 1, 2, 6)
	got, ok := r.NarrowPrefs(j, 1)
	if !ok || len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Errorf("NarrowPrefs = %v/%v, want [5 6]/true", got, ok)
	}
	// Phase 2 has different parallelism (3 vs 2): not narrow.
	r.Record(PhaseKey{Job: 1, Phase: 1}, 0, 2, 5)
	r.Record(PhaseKey{Job: 1, Phase: 1}, 1, 2, 6)
	if _, ok := r.NarrowPrefs(j, 2); ok {
		t.Error("parallelism change should not be narrow")
	}
	// Root phase has no deps: not narrow.
	if _, ok := r.NarrowPrefs(j, 0); ok {
		t.Error("root phase should not be narrow")
	}
	// Multi-dep phases are not narrow.
	diamond, err := dag.NewJob(3, "d", 1, []dag.PhaseSpec{
		{Durations: []time.Duration{time.Second}},
		{Durations: []time.Duration{time.Second}},
		{Durations: []time.Duration{time.Second}, Deps: []int{0, 1}},
	})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if _, ok := r.NarrowPrefs(diamond, 2); ok {
		t.Error("multi-dep phase should not be narrow")
	}
}

func TestForgetJob(t *testing.T) {
	r := NewLocalityRegistry()
	r.Record(PhaseKey{Job: 1, Phase: 0}, 0, 1, 1)
	r.Record(PhaseKey{Job: 1, Phase: 1}, 0, 1, 2)
	r.Record(PhaseKey{Job: 2, Phase: 0}, 0, 1, 3)
	r.ForgetJob(1)
	if r.Phases() != 1 {
		t.Errorf("Phases after forget = %d, want 1", r.Phases())
	}
	if got := r.SlotsFor(PhaseKey{Job: 1, Phase: 0}); got != nil {
		t.Errorf("forgotten phase still present: %v", got)
	}
	if got := r.SlotsFor(PhaseKey{Job: 2, Phase: 0}); len(got) != 1 {
		t.Errorf("unrelated job was dropped: %v", got)
	}
	// Forgetting twice is harmless.
	r.ForgetJob(1)
}

// TestSlotsForMatchesSetDedup compares SlotsFor on both sides of
// dedupScanMax with deduplication through a set, the way it was always
// done: same distinct slots, same first-use order, unset entries skipped,
// nil when nothing is recorded.
func TestSlotsForMatchesSetDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, width := range []int{1, 2, 7, dedupScanMax - 1, dedupScanMax, dedupScanMax + 1, 3 * dedupScanMax} {
		for _, slots := range []int{1, 4, width, 4 * width} {
			r := NewLocalityRegistry()
			key := PhaseKey{Job: 1, Phase: 2}
			var want []SlotID
			seen := map[SlotID]bool{}
			for task := 0; task < width; task++ {
				if rng.Intn(5) == 0 {
					continue // never recorded: stays NoSlot
				}
				s := SlotID(rng.Intn(slots))
				r.Record(key, task, width, s)
				if !seen[s] {
					seen[s] = true
					want = append(want, s)
				}
			}
			got := r.SlotsFor(key)
			if len(want) == 0 && got != nil {
				t.Fatalf("width %d: SlotsFor = %v with nothing recorded, want nil", width, got)
			}
			if len(got) != len(want) {
				t.Fatalf("width %d over %d slots: SlotsFor = %v, want %v", width, slots, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("width %d over %d slots: SlotsFor = %v, want %v", width, slots, got, want)
				}
			}
		}
	}
	r := NewLocalityRegistry()
	r.Record(PhaseKey{Job: 1}, 0, 2, NoSlot)
	if got := r.SlotsFor(PhaseKey{Job: 1}); got != nil {
		t.Errorf("SlotsFor of a phase with only unset entries = %v, want nil", got)
	}
	if got := r.SlotsFor(PhaseKey{Job: 9}); got != nil {
		t.Errorf("SlotsFor of an unknown phase = %v, want nil", got)
	}
	// Below the threshold the whole call is the one result slice.
	for task := 0; task < 8; task++ {
		r.Record(PhaseKey{Job: 2}, task, 8, SlotID(task%3))
	}
	if allocs := testing.AllocsPerRun(100, func() { r.SlotsFor(PhaseKey{Job: 2}) }); allocs != 1 {
		t.Errorf("SlotsFor of a narrow phase allocates %.0f times, want 1", allocs)
	}
}
