package cluster

import (
	"slices"

	"ssr/internal/dag"
)

// PhaseKey identifies one phase of one job, for locality bookkeeping.
type PhaseKey struct {
	Job   dag.JobID
	Phase int
}

// NoSlot marks a task whose executing slot has not been recorded.
const NoSlot = SlotID(-1)

// LocalityRegistry records which slot executed each task of each phase,
// i.e. where a phase's output partitions (and a warm JVM for that job)
// live. Downstream tasks scheduled onto these slots run at the
// PROCESS_LOCAL level; anywhere else they pay the remote-fetch + cold-JVM
// penalty that Fig. 6 of the paper quantifies.
type LocalityRegistry struct {
	byPhase map[PhaseKey][]SlotID // indexed by task index; NoSlot if unset
	byJob   map[dag.JobID][]PhaseKey
}

// NewLocalityRegistry returns an empty registry.
func NewLocalityRegistry() *LocalityRegistry {
	return &LocalityRegistry{
		byPhase: make(map[PhaseKey][]SlotID),
		byJob:   make(map[dag.JobID][]PhaseKey),
	}
}

// Record notes that task taskIdx (of a phase with total tasks) executed on
// slot.
func (r *LocalityRegistry) Record(key PhaseKey, taskIdx, total int, slot SlotID) {
	slots := r.byPhase[key]
	if slots == nil {
		slots = make([]SlotID, total)
		for i := range slots {
			slots[i] = NoSlot
		}
		r.byJob[key.Job] = append(r.byJob[key.Job], key)
		r.byPhase[key] = slots
	}
	if taskIdx >= 0 && taskIdx < len(slots) {
		slots[taskIdx] = slot
	}
}

// TaskSlots returns the per-task slot assignment of a recorded phase
// (entry i is where task i's output lives, NoSlot if never recorded). The
// returned slice is shared; callers must not mutate it.
func (r *LocalityRegistry) TaskSlots(key PhaseKey) []SlotID {
	return r.byPhase[key]
}

// SlotsFor returns the distinct slots holding the given phase's output, in
// task order of first use.
func (r *LocalityRegistry) SlotsFor(key PhaseKey) []SlotID {
	raw := r.byPhase[key]
	// A phase's tasks land on a handful of slots: scanning the output so
	// far finds a repeat without building a set. Only a phase wider than
	// dedupScanMax pays for the map.
	var out []SlotID
	var seen map[SlotID]bool
	if len(raw) > dedupScanMax {
		seen = make(map[SlotID]bool, len(raw))
	}
	for _, s := range raw {
		switch {
		case s == NoSlot:
			continue
		case seen == nil:
			if slices.Contains(out, s) {
				continue
			}
		case seen[s]:
			continue
		default:
			seen[s] = true
		}
		if out == nil {
			out = make([]SlotID, 0, len(raw))
		}
		out = append(out, s)
	}
	return out
}

// dedupScanMax is the widest phase SlotsFor deduplicates by linear scan.
const dedupScanMax = 64

// PreferredSlots returns the union of slots holding the outputs of the
// given phase's upstream dependencies — the PROCESS_LOCAL placement set for
// that phase's tasks. Root phases have no preference (nil).
func (r *LocalityRegistry) PreferredSlots(job *dag.Job, phase int) []SlotID {
	deps := job.Phase(phase).Deps
	if len(deps) == 0 {
		return nil
	}
	if len(deps) == 1 {
		return r.SlotsFor(PhaseKey{Job: job.ID, Phase: deps[0]})
	}
	var out []SlotID
	seen := make(map[SlotID]bool)
	for _, dep := range deps {
		for _, s := range r.SlotsFor(PhaseKey{Job: job.ID, Phase: dep}) {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// NarrowPrefs returns the per-task preferred slot for a narrow-dependency
// phase: task i of the downstream phase reads the partition task i of the
// single upstream phase produced (an iterative job updating a cached RDD,
// the paper's Fig. 3a). ok is false unless the phase has exactly one
// upstream dependency with the same degree of parallelism and recorded
// placements. The returned slice is shared; callers must not mutate it.
func (r *LocalityRegistry) NarrowPrefs(job *dag.Job, phase int) ([]SlotID, bool) {
	ph := job.Phase(phase)
	if len(ph.Deps) != 1 {
		return nil, false
	}
	dep := job.Phase(ph.Deps[0])
	if dep.Parallelism() != ph.Parallelism() {
		return nil, false
	}
	slots := r.byPhase[PhaseKey{Job: job.ID, Phase: dep.ID}]
	if len(slots) != ph.Parallelism() {
		return nil, false
	}
	return slots, true
}

// EvictSlots clears every record pointing at the given slots (their node
// failed, so the outputs cached there are lost). Downstream tasks that
// preferred those slots fall back to ANY placement at the locality penalty
// — the lost-output model. It returns the number of task records evicted.
func (r *LocalityRegistry) EvictSlots(slots []SlotID) int {
	if len(slots) == 0 {
		return 0
	}
	dead := make(map[SlotID]bool, len(slots))
	for _, s := range slots {
		dead[s] = true
	}
	evicted := 0
	for _, ts := range r.byPhase { //maporder:ok per-entry mutation; evicted is an order-free sum
		for i, s := range ts {
			if s != NoSlot && dead[s] {
				ts[i] = NoSlot
				evicted++
			}
		}
	}
	return evicted
}

// ForgetJob drops all entries of a completed job, bounding memory use over
// long simulations.
func (r *LocalityRegistry) ForgetJob(job dag.JobID) {
	for _, key := range r.byJob[job] {
		delete(r.byPhase, key)
	}
	delete(r.byJob, job)
}

// Phases returns the number of phases currently tracked.
func (r *LocalityRegistry) Phases() int { return len(r.byPhase) }
