// Package dag models workflow jobs as directed acyclic graphs of phases.
//
// A job runs in pipelined phases; each phase holds parallel tasks, and a
// barrier separates a phase from its downstream phases: no downstream task
// may start before every task of every upstream phase has completed
// (Sec. II-A of the paper). Spark stages, Tez vertices and Dryad stages all
// map onto this model.
//
// Jobs are immutable once built: all runtime state (task attempts, phase
// progress, reservations) lives in the driver. Task durations — including
// the duration a speculative copy would take — are pre-drawn at construction
// time so that a job performs identical work whether simulated alone or in
// contention, which is what makes the paper's slowdown metric well-defined.
package dag

import (
	"errors"
	"fmt"
	"time"
)

// JobID identifies a job within a simulation.
type JobID int64

// Priority orders jobs for the scheduler; higher values are served first.
// The paper's foreground (latency-sensitive) jobs get higher priorities than
// background (batch) jobs.
type Priority int

// Task is a single unit of work within a phase.
type Task struct {
	// Index is the task's position within its phase, starting at 0.
	Index int
	// Duration is the task's base runtime at full data locality. The
	// actual simulated runtime may be longer if the task runs on a slot
	// without its input data (Sec. II-B, Case 2).
	Duration time.Duration
	// CopyDuration is the pre-drawn base runtime of the speculative copy
	// that straggler mitigation (Sec. IV-C) would launch for this task.
	CopyDuration time.Duration
}

// Phase is a set of parallel tasks separated from its downstream phases by
// a barrier.
type Phase struct {
	// ID is the phase's index within the job.
	ID int
	// Tasks are the phase's parallel tasks; len(Tasks) is the phase's
	// degree of parallelism (the paper's m and n).
	Tasks []Task
	// Deps lists the IDs of upstream phases that must complete before
	// this phase may start.
	Deps []int
	// Demand is the slot size each task of this phase needs. Frameworks
	// like Tez let resource demands differ across phases (Sec. III-C);
	// Spark-style jobs use uniform demand 1.
	Demand int
}

// Parallelism returns the phase's degree of parallelism.
func (p *Phase) Parallelism() int { return len(p.Tasks) }

// PhaseSpec describes one phase when building a job.
type PhaseSpec struct {
	// Durations are the base task durations; one task per entry.
	Durations []time.Duration
	// CopyDurations optionally gives the speculative-copy runtime per
	// task. When nil, each task's copy duration defaults to its primary
	// duration.
	CopyDurations []time.Duration
	// Deps lists upstream phase indices within the job.
	Deps []int
	// Demand is the slot size each task needs; zero means 1.
	Demand int
}

// Class distinguishes the two workload roles in the paper's experiments.
type Class int

// Workload classes.
const (
	// Foreground marks latency-sensitive, high-priority jobs.
	Foreground Class = iota + 1
	// Background marks latency-tolerant, low-priority batch jobs.
	Background
)

func (c Class) String() string {
	switch c {
	case Foreground:
		return "foreground"
	case Background:
		return "background"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Job is an immutable workflow DAG of phases, laid out once by a Builder:
// one []Phase, one []Task every phase slices into, and the arena below.
type Job struct {
	// ID identifies the job.
	ID JobID
	// Name is a human-readable label ("kmeans", "bg-17", ...).
	Name string
	// Priority orders the job against others; higher wins.
	Priority Priority
	// Class tags the job as foreground or background.
	Class Class
	// Submit is the virtual time the job arrives at the scheduler.
	Submit time.Duration
	// ParallelismKnown reports whether the scheduler may use each
	// phase's downstream degree of parallelism a priori (Algorithm 1,
	// Case 2). Recurring production jobs and jobs with user-specified
	// parallelism set this; ad-hoc jobs do not.
	ParallelismKnown bool
	// Tenant names the owning tenant for multi-tenant deployments.
	// Empty means the default tenant; the scheduler itself never
	// branches on it — quotas are enforced at admission, above.
	Tenant string

	phases []*Phase
	// arena holds, for n phases with D deduplicated dependency edges:
	//
	//	[0, n)          the topological order; its leading run of
	//	                dependency-free phases is Roots
	//	[n, 2n+1)       child offsets: phase i's children are
	//	                arena[arena[n+i]:arena[n+i+1]]
	//	[2n+1, 2n+1+D)  every phase's Deps list, in phase order
	//	[2n+1+D, +D)    every phase's children list, in phase order
	//
	// Every section is found from len(phases) and the offsets stored in the
	// arena itself: one slice header here instead of one per section keeps
	// Job in the 128-byte size class (three more headers put it in the
	// 224-byte one, and every finished job retains its Job).
	arena []int
}

var (
	errNoPhases = errors.New("dag: job needs at least one phase")
	errCycle    = errors.New("dag: phase dependencies contain a cycle")
)

// Option configures optional job attributes at construction.
type Option func(*Job)

// WithClass sets the job's workload class.
func WithClass(c Class) Option { return func(j *Job) { j.Class = c } }

// WithSubmit sets the job's submission time.
func WithSubmit(at time.Duration) Option { return func(j *Job) { j.Submit = at } }

// WithKnownParallelism marks the downstream degree of parallelism as known
// a priori to the scheduler.
func WithKnownParallelism() Option { return func(j *Job) { j.ParallelismKnown = true } }

// WithTenant sets the owning tenant.
func WithTenant(t string) Option { return func(j *Job) { j.Tenant = t } }

// stackPhases is the phase count up to which a Builder's per-phase scratch
// (dependency stamps, child cursors, in-degrees) sits inside the Builder
// value, on its caller's stack, rather than in a heap slice.
const stackPhases = 16

// Builder lays a job out from its declared shape: NewBuilder allocates the
// job's blocks, each AddPhase hands the caller that phase's tasks to fill,
// and Job validates, links and returns the result. It is the one
// construction path; NewJob and Chain are built on it. Errors are sticky:
// after the first one AddPhase returns nil and Job reports it. Keep the
// Builder in a local variable so its scratch stays off the heap.
type Builder struct {
	job      *Job
	block    []Phase // cap is the declared phase count
	tasks    []Task  // len is the part already handed out
	arena    []int   // Job.arena under construction: len grows with each Deps list
	depsLeft int     // declared dependency entries not yet used
	checked  int     // phases of block already validated
	err      error
	small    [stackPhases]int
	big      []int
}

// NewBuilder starts a job with exactly phases phases, at most tasks tasks
// in total and at most deps dependency entries in total (duplicates
// included). The job's class defaults to Foreground.
func NewBuilder(id JobID, name string, priority Priority, phases, tasks, deps int) Builder {
	b := Builder{job: &Job{ID: id, Name: name, Priority: priority, Class: Foreground}, depsLeft: deps}
	if phases < 0 || tasks < 0 || deps < 0 {
		b.err = fmt.Errorf("dag: job %q builder declared a negative size", name)
		return b
	}
	b.job.phases = make([]*Phase, 0, phases)
	b.block = make([]Phase, 0, phases)
	b.tasks = make([]Task, 0, tasks)
	b.arena = make([]int, 2*phases+1, 2*phases+1+2*deps)
	if phases > stackPhases {
		b.big = make([]int, phases)
	}
	return b
}

// scratch returns one int per declared phase, reused by each build step.
func (b *Builder) scratch() []int {
	if b.big != nil {
		return b.big
	}
	return b.small[:cap(b.block)]
}

// AddPhase appends the next phase: n tasks, the given upstream phase
// indices (copied; duplicates are dropped) and per-task slot demand (zero
// means 1). It returns the phase's n tasks, Index set, for the caller to
// give each a positive Duration and CopyDuration — or nil once the builder
// has failed, so fill by ranging over the result.
func (b *Builder) AddPhase(n int, deps []int, demand int) []Task {
	b.checkPhase()
	if b.err != nil {
		return nil
	}
	name, pi := b.job.Name, len(b.block)
	switch {
	case pi == cap(b.block):
		b.err = fmt.Errorf("dag: job %q builder got more than the %d phases it declared", name, pi)
	case n <= 0:
		b.err = fmt.Errorf("dag: job %q phase %d has no tasks", name, pi)
	case n > cap(b.tasks)-len(b.tasks):
		b.err = fmt.Errorf("dag: job %q builder got more than the %d tasks it declared", name, cap(b.tasks))
	case len(deps) > b.depsLeft:
		b.err = fmt.Errorf("dag: job %q builder got more dependency entries than it declared", name)
	}
	if b.err != nil {
		return nil
	}
	b.depsLeft -= len(deps)
	lo := len(b.tasks)
	b.tasks = b.tasks[:lo+n]
	tasks := b.tasks[lo : lo+n : lo+n]
	for ti := range tasks {
		tasks[ti].Index = ti
	}
	dlo := len(b.arena)
	b.arena = append(b.arena, deps...)
	b.block = append(b.block, Phase{ID: pi, Tasks: tasks, Deps: b.arena[dlo:], Demand: demand})
	b.job.phases = append(b.job.phases, &b.block[pi])
	return tasks
}

// checkPhase validates the most recently added phase once its caller has
// filled its tasks — demand, then durations, then dependencies, the order
// errors have always been reported in — and deduplicates its Deps in place.
func (b *Builder) checkPhase() {
	if b.err != nil || b.checked == len(b.block) {
		return
	}
	p := &b.block[b.checked]
	b.checked++
	name, pi := b.job.Name, p.ID
	if p.Demand < 0 {
		b.err = fmt.Errorf("dag: job %q phase %d has negative demand %d", name, pi, p.Demand)
		return
	}
	if p.Demand == 0 {
		p.Demand = 1
	}
	for ti, t := range p.Tasks {
		if t.Duration <= 0 {
			b.err = fmt.Errorf("dag: job %q phase %d task %d has non-positive duration %v",
				name, pi, ti, t.Duration)
			return
		}
		if t.CopyDuration <= 0 {
			b.err = fmt.Errorf("dag: job %q phase %d task %d has non-positive copy duration %v",
				name, pi, ti, t.CopyDuration)
			return
		}
	}
	// seen[dep] == pi+1 marks dep as already listed by this phase.
	seen, kept := b.scratch(), p.Deps[:0]
	for _, dep := range p.Deps {
		if dep < 0 || dep >= cap(b.block) {
			b.err = fmt.Errorf("dag: job %q phase %d depends on out-of-range phase %d", name, pi, dep)
			return
		}
		if dep == pi {
			b.err = fmt.Errorf("dag: job %q phase %d depends on itself", name, pi)
			return
		}
		if seen[dep] != pi+1 {
			seen[dep] = pi + 1
			kept = append(kept, dep)
		}
	}
	b.arena = b.arena[:len(b.arena)-len(p.Deps)+len(kept)]
	p.Deps = nil
	if len(kept) > 0 {
		p.Deps = kept[:len(kept):len(kept)]
	}
}

// Job validates the last phase, derives the children index and the
// topological order, and returns the finished job.
func (b *Builder) Job() (*Job, error) {
	b.checkPhase()
	n := len(b.block)
	switch {
	case b.err != nil:
		return nil, b.err
	case cap(b.block) == 0:
		return nil, errNoPhases
	case n < cap(b.block):
		return nil, fmt.Errorf("dag: job %q builder got %d of the %d phases it declared", b.job.Name, n, cap(b.block))
	}
	// Children in offset/index form: count each phase's children, turn the
	// counts into offsets past the Deps lists, then fill in phase order so
	// every children list is ascending, as the sort below relies on.
	a, scratch := b.arena, b.scratch()
	topo, off := a[:n], a[n:2*n+1]
	for i := range scratch {
		scratch[i] = 0
	}
	for i := range b.block {
		for _, dep := range b.block[i].Deps {
			scratch[dep]++
		}
	}
	end := len(a)
	for i, kids := range scratch {
		off[i], scratch[i] = end, end
		end += kids
	}
	off[n] = end
	a = a[:end]
	for i := range b.block {
		for _, dep := range b.block[i].Deps {
			a[scratch[dep]] = i
			scratch[dep]++
		}
	}
	// Kahn's algorithm with a FIFO over phase IDs; ties resolve in ID
	// order. A phase is dequeued in the order it was enqueued, so the
	// order being built is its own queue.
	for i := range b.block {
		scratch[i] = len(b.block[i].Deps)
	}
	tail := 0
	for i, indeg := range scratch {
		if indeg == 0 {
			topo[tail] = i
			tail++
		}
	}
	for head := 0; head < tail; head++ {
		id := topo[head]
		for _, c := range a[off[id]:off[id+1]] {
			if scratch[c]--; scratch[c] == 0 {
				topo[tail] = c
				tail++
			}
		}
	}
	if tail != n {
		return nil, fmt.Errorf("dag: job %q: %w", b.job.Name, errCycle)
	}
	b.job.arena = a
	return b.job, nil
}

// NewJob builds and validates a job from phase specifications. The job
// shares no storage with specs.
func NewJob(id JobID, name string, priority Priority, specs []PhaseSpec, opts ...Option) (*Job, error) {
	return build(id, name, priority, specs, false, opts)
}

// Chain builds a linear pipeline: each phase depends on the previous one.
// This is the dominant shape in the paper (Fig. 2).
func Chain(id JobID, name string, priority Priority, phases []PhaseSpec, opts ...Option) (*Job, error) {
	return build(id, name, priority, phases, true, opts)
}

func build(id JobID, name string, priority Priority, specs []PhaseSpec, chain bool, opts []Option) (*Job, error) {
	if len(specs) == 0 {
		return nil, errNoPhases
	}
	tasks, deps := 0, 0
	for i := range specs {
		tasks += len(specs[i].Durations)
		if chain && i > 0 {
			deps++
		} else {
			deps += len(specs[i].Deps)
		}
	}
	b := NewBuilder(id, name, priority, len(specs), tasks, deps)
	for pi := range specs {
		spec := &specs[pi]
		var prev [1]int
		on := spec.Deps
		if chain && pi > 0 {
			prev[0], on = pi-1, prev[:]
		}
		ts := b.AddPhase(len(spec.Durations), on, spec.Demand)
		if b.err == nil && spec.CopyDurations != nil && len(spec.CopyDurations) != len(spec.Durations) {
			b.err = fmt.Errorf("dag: job %q phase %d has %d copy durations for %d tasks",
				name, pi, len(spec.CopyDurations), len(spec.Durations))
		}
		if b.err != nil {
			break // Job reports it; CopyDurations may be short
		}
		for ti := range ts {
			ts[ti].Duration, ts[ti].CopyDuration = spec.Durations[ti], spec.Durations[ti]
			if spec.CopyDurations != nil {
				ts[ti].CopyDuration = spec.CopyDurations[ti]
			}
		}
	}
	j, err := b.Job()
	if err != nil {
		return nil, err
	}
	for _, opt := range opts {
		opt(j)
	}
	return j, nil
}

// NumPhases returns the number of phases.
func (j *Job) NumPhases() int { return len(j.phases) }

// Phase returns the phase with the given ID; it panics on out-of-range IDs,
// which indicate a programming error.
func (j *Job) Phase(id int) *Phase { return j.phases[id] }

// Phases returns the job's phases in ID order. The returned slice is shared;
// callers must not mutate it.
func (j *Job) Phases() []*Phase { return j.phases }

// Children returns the IDs of the phases directly downstream of phase id,
// ascending. The returned slice is shared; callers must not mutate it.
func (j *Job) Children(id int) []int {
	_ = j.phases[id] // out-of-range IDs panic, as in Phase
	off := j.arena[len(j.phases)+id:]
	return j.arena[off[0]:off[1]:off[1]]
}

// IsFinal reports whether phase id has no downstream phases.
func (j *Job) IsFinal(id int) bool { return len(j.Children(id)) == 0 }

// Roots returns the IDs of phases with no dependencies, in ID order. The
// returned slice is shared; callers must not mutate it.
func (j *Job) Roots() []int {
	// The sort seeds its queue with the roots in ID order, so they lead
	// the topological order.
	r := 0
	for r < len(j.phases) && len(j.phases[j.arena[r]].Deps) == 0 {
		r++
	}
	return j.arena[:r:r]
}

// TopoOrder returns the phase IDs in a dependency-respecting order.
// The returned slice is shared; callers must not mutate it.
func (j *Job) TopoOrder() []int { return j.arena[:len(j.phases):len(j.phases)] }

// DownstreamParallelism returns the paper's n for phase id: the total
// degree of parallelism of the phases directly downstream of it. It returns
// 0 for final phases.
func (j *Job) DownstreamParallelism(id int) int {
	n := 0
	for _, c := range j.Children(id) {
		n += len(j.phases[c].Tasks)
	}
	return n
}

// MaxDemand returns the largest per-task slot demand of any phase.
func (j *Job) MaxDemand() int {
	m := 1
	for _, p := range j.phases {
		if p.Demand > m {
			m = p.Demand
		}
	}
	return m
}

// TotalTasks returns the number of tasks across all phases.
func (j *Job) TotalTasks() int {
	n := 0
	for _, p := range j.phases {
		n += len(p.Tasks)
	}
	return n
}

// MaxParallelism returns the largest degree of parallelism of any phase.
func (j *Job) MaxParallelism() int {
	m := 0
	for _, p := range j.phases {
		if len(p.Tasks) > m {
			m = len(p.Tasks)
		}
	}
	return m
}

// SerialWork returns the sum of all base task durations: the work the job
// would perform on a single slot at full locality.
func (j *Job) SerialWork() time.Duration {
	var sum time.Duration
	for _, p := range j.phases {
		for _, t := range p.Tasks {
			sum += t.Duration
		}
	}
	return sum
}

// CriticalPath returns a lower bound on the job's completion time: the
// longest dependency chain of phases, where each phase contributes its
// slowest task. No scheduler can beat this with original attempts only.
func (j *Job) CriticalPath() time.Duration {
	longest := make([]time.Duration, len(j.phases))
	var best time.Duration
	for _, id := range j.TopoOrder() {
		p := j.phases[id]
		var slowest time.Duration
		for _, t := range p.Tasks {
			if t.Duration > slowest {
				slowest = t.Duration
			}
		}
		var upstream time.Duration
		for _, dep := range p.Deps {
			if longest[dep] > upstream {
				upstream = longest[dep]
			}
		}
		longest[id] = upstream + slowest
		if longest[id] > best {
			best = longest[id]
		}
	}
	return best
}

func (j *Job) String() string {
	return fmt.Sprintf("job %d %q (prio=%d, %d phases, %d tasks)",
		j.ID, j.Name, j.Priority, j.NumPhases(), j.TotalTasks())
}
