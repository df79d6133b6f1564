// Package driver is the simulation counterpart of the Spark driver: it
// wires the discrete-event engine, the cluster, the workflow DAGs, the
// scheduling queue and the reservation policy into a running system.
//
// The three roles of the paper's prototype (Sec. V) map directly onto this
// package:
//
//   - DAGScheduler: tracks phase dependencies per job and submits a phase's
//     task set once its barrier clears (submitPhase / onPhaseComplete).
//   - TaskSetManager: manages the tasks of one phase — the locality wait,
//     the Algorithm 1 reservation tracker, the reservation deadline, and
//     speculative copies (phaseRun).
//   - TaskSchedulerImpl: matches freed slots to queued tasks under the
//     ApprovalLogic enforced by the cluster's reservation state (dispatch).
//
// The driver supports four reservation modes: none (plain work-conserving
// scheduling), speculative slot reservation (the paper's contribution),
// timeout-based reservation, and static slot reservation (the two naive
// baselines of Sec. III-A).
package driver

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/metrics"
	"ssr/internal/obs"
	"ssr/internal/sched"
	"ssr/internal/sim"
	"ssr/internal/trace"
)

// Mode selects the reservation policy.
type Mode int

// Reservation modes.
const (
	// ModeNone is plain work-conserving scheduling: every freed slot
	// goes back to the pool immediately.
	ModeNone Mode = iota + 1
	// ModeSSR is speculative slot reservation (Algorithm 1 plus the
	// deadline and straggler-mitigation refinements).
	ModeSSR
	// ModeTimeout blindly reserves every freed slot for its job for a
	// fixed timeout (Spark dynamic allocation style, Sec. III-A.2).
	ModeTimeout
	// ModeStatic statically fences the first StaticSlots slots for jobs
	// at or above StaticMinPriority (Mesos/Borg style, Sec. III-A.1).
	ModeStatic
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeSSR:
		return "ssr"
	case ModeTimeout:
		return "timeout"
	case ModeStatic:
		return "static"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// StaticJobID is the sentinel owner of statically reserved slots.
const StaticJobID = dag.JobID(-1)

// Options configures a Driver.
type Options struct {
	// Queue orders jobs for slot hand-out. Defaults to a priority queue.
	Queue sched.Queue
	// Mode selects the reservation policy. Defaults to ModeNone.
	Mode Mode
	// SSR parameterizes ModeSSR.
	SSR core.Config
	// ReserveMinPriority scopes ModeSSR to jobs at or above this
	// priority. The paper's evaluation reserves for the
	// latency-sensitive (foreground) class: small jobs whose
	// reservations cost little (Sec. III-C), while the batch backlog
	// stays purely work conserving. Zero applies SSR to every job.
	ReserveMinPriority dag.Priority
	// Timeout is the reservation lifetime for ModeTimeout.
	Timeout time.Duration
	// StaticSlots is the size of the static partition for ModeStatic.
	StaticSlots int
	// StaticMinPriority is the minimum job priority allowed onto the
	// static partition.
	StaticMinPriority dag.Priority
	// LocalityWait is how long a locality-constrained task waits for a
	// preferred slot before accepting any slot (Spark's
	// spark.locality.wait; the paper's simulations use 3s).
	LocalityWait time.Duration
	// LocalityFactor multiplies a constrained task's runtime when it
	// runs without data locality (remote fetch + cold JVM). The paper's
	// simulations use a conservative 5x (10x in the stress setting).
	LocalityFactor float64
	// RecordTimeline enables per-job running-slot step series.
	RecordTimeline bool
	// Trace, when non-nil, receives one event per task attempt
	// (originals and speculative copies, winners and killed losers).
	Trace *trace.Recorder
	// OnEvent, when non-nil, receives every scheduler lifecycle event
	// (job/phase/attempt/reservation transitions) synchronously as it
	// happens. Handlers run inside the simulation event and must not
	// re-enter the driver, with two exceptions made for the owner of an
	// online job store: the read-only snapshots (Progress, Result) and,
	// from a job's terminal event, Forget of that job. The online service
	// layer bridges the events onto its bus.
	OnEvent func(Event)
	// Speculation enables Spark-style progress-based speculative
	// execution — the status-quo straggler mitigation the paper's
	// reserved-slot strategy is compared against (Sec. IV-C).
	Speculation SpeculationConfig
	// Retry governs task re-execution after a node failure kills an
	// attempt. It only matters when faults are injected (FailNode); a
	// failure-free run never consults it.
	Retry RetryPolicy
	// ForceRemote prices every locality-constrained placement as remote
	// (locality level ANY), even on a preferred slot. It reproduces the
	// paper's Fig. 6 methodology of running sampled phases "on
	// different slots in different phases" to measure the locality
	// penalty end to end.
	ForceRemote bool
	// Lender, when non-nil, lets this driver borrow slots from sibling
	// cluster shards once a phase's SSR pre-reservation quota exhausts
	// the home cluster (internal/shard wires the federation's lending
	// broker here). Nil — the default — disables cross-shard lending and
	// leaves scheduling bit-identical to a standalone driver.
	Lender SlotLender
	// Audit, when non-nil, receives a typed event for every reservation
	// decision (reserve, release, pre-reserve, deadline arm/expiry,
	// straggler-copy lifecycle, loan grant/return), stamped with the
	// virtual clock. The stream is passive: attaching it never changes a
	// scheduling decision. AuditShard tags the events when several
	// drivers share one Audit.
	Audit      *obs.Audit
	AuditShard int
	// Metrics, when non-nil, receives hot-path counter and histogram
	// observations (queue wait, phase JCT, reservation hold times,
	// lending round-trips). Like Audit it is passive and rides the
	// virtual clock.
	Metrics *obs.SchedMetrics
	// Policy, when non-nil, bundles a queue discipline and reservation
	// mode into one named slot policy (SSR, DAGPS, packing). It only
	// fills fields the caller left zero: an explicit Queue or Mode
	// always wins, so existing configurations are untouched.
	Policy SlotPolicy
	// TenantSSR, when non-nil, transforms the effective SSR config per
	// job by tenant (the service layer wires per-tenant Eq. 3 isolation
	// P here). It is consulted once at job submission, only when SSR is
	// enabled for the job; nil leaves every job on Options.SSR.
	TenantSSR func(tenant string, cfg core.Config) core.Config
	// OnDrain, when non-nil, is invoked as a node enters the Draining
	// state, before its notice timer is armed. The shard federation wires
	// the lending broker's recall here so idle loans checked out of the
	// draining node travel home immediately.
	OnDrain func(node int)
	// Adaptive, when non-nil, closes the SSR control loop: task
	// completions, phase submissions and deadline outcomes feed the
	// estimator, and deadlines re-derive their Eq. 3 knobs (alpha,
	// effective P) from its accepted fits instead of static config, with
	// straggler copies capped by its stability-gated budget. All calls
	// ride engine events on the virtual clock, so replays stay
	// deterministic. A federation passes one shared registry through
	// shard.Options.Driver to every shard. Nil disables adaptation and
	// keeps scheduling bit-identical to a build without the hook.
	Adaptive AdaptiveSSR
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Policy != nil {
		if out.Queue == nil {
			out.Queue = out.Policy.NewQueue()
		}
		if m := out.Policy.Mode(); m != 0 && out.Mode == 0 {
			out.Mode = m
			if m == ModeSSR && out.SSR == (core.Config{}) {
				out.SSR = core.DefaultConfig()
			}
		}
	}
	if out.Queue == nil {
		out.Queue = sched.NewPriorityQueue()
	}
	if out.Mode == 0 {
		out.Mode = ModeNone
	}
	if out.LocalityWait == 0 {
		out.LocalityWait = 3 * time.Second
	}
	if out.LocalityFactor == 0 {
		out.LocalityFactor = 5.0
	}
	out.Retry = out.Retry.withDefaults()
	return out
}

func (o *Options) validate() error {
	if o.LocalityFactor < 1 {
		return fmt.Errorf("driver: locality factor %v must be >= 1", o.LocalityFactor)
	}
	if o.LocalityWait < 0 {
		return errors.New("driver: locality wait must be non-negative")
	}
	switch o.Mode {
	case ModeSSR:
		cfg := o.SSR
		cfg.Enabled = true
		if err := cfg.Validate(); err != nil {
			return err
		}
	case ModeTimeout:
		if o.Timeout <= 0 {
			return errors.New("driver: ModeTimeout requires a positive Timeout")
		}
	case ModeStatic:
		if o.StaticSlots <= 0 {
			return errors.New("driver: ModeStatic requires positive StaticSlots")
		}
	case ModeNone:
	default:
		return fmt.Errorf("driver: unknown mode %v", o.Mode)
	}
	if err := o.Retry.validate(); err != nil {
		return err
	}
	return o.Speculation.validate()
}

// Driver runs jobs on a simulated cluster under a scheduling policy.
type Driver struct {
	eng  *sim.Engine
	cl   *cluster.Cluster
	loc  *cluster.LocalityRegistry
	opts Options

	// jobsByID holds every submitted job until Forget drops it: live jobs
	// with their runtime graph, finished ones stripped to their statistics.
	jobsByID map[dag.JobID]*jobRun
	// live holds the unfinished jobs in no particular order (jobRun.liveIdx
	// is each one's position), so backlog and locality scans never walk
	// finished history.
	live []*jobRun
	// makespan is the latest finish time of any completed or aborted job.
	makespan time.Duration

	slotOwner map[cluster.SlotID]*attempt
	waiters   map[cluster.SlotID][]*phaseRun
	// preReservers holds phases with outstanding pre-reservation quota.
	preReservers []*phaseRun
	// lastReserve tags timeout-mode reservations so stale expiry timers
	// do not cancel newer reservations on the same slot.
	lastReserve map[cluster.SlotID]sim.Time

	usage    *metrics.SlotUsage
	timeline *metrics.Timeline
	fc       metrics.FaultCounters
	// resAt remembers each live reservation's owner and start time, so
	// Reserved->X transitions can be attributed and timed after the
	// cluster has already cleared the slot's reservation record. Nil
	// unless observability is attached.
	resAt map[cluster.SlotID]resInfo

	dispatchScheduled bool
	// dispatchTimer is the pending coalesced-dispatch event; its storage
	// is recycled through the engine's free list after each pass.
	dispatchTimer *sim.Timer

	// activateArg, onFinishArg, dispatchTick, expireDeadlineArg and
	// openLocalityArg are the long-lived callbacks behind
	// sim.Engine.AtArg/PostArg: created once here so the per-job, per-attempt,
	// per-dispatch and per-phase schedule sites allocate no closure.
	activateArg       func(any)
	onFinishArg       func(any)
	dispatchTick      func(any)
	expireDeadlineArg func(any)
	openLocalityArg   func(any)
	// attFree recycles attempt structs: an attempt is returned here by
	// onFinish once every reference to it (task slots, slotOwner, its
	// timer's argument) has been dropped.
	attFree []*attempt
	// reservedScratch is the reusable snapshot buffer for the dispatch
	// sweep over reservation-holding jobs.
	reservedScratch []dag.JobID
	// drainTimers holds each draining node's pending notice-expiry event.
	// Nil until the first DrainNode, so lifecycle-free runs never touch it.
	drainTimers      map[int]*sim.Timer
	completeDrainArg func(any)
}

// New creates a driver over an engine and cluster.
func New(eng *sim.Engine, cl *cluster.Cluster, opts Options) (*Driver, error) {
	o := opts.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.Mode == ModeStatic && o.StaticSlots > cl.NumSlots() {
		return nil, fmt.Errorf("driver: static partition %d exceeds cluster size %d",
			o.StaticSlots, cl.NumSlots())
	}
	d := &Driver{
		eng:         eng,
		cl:          cl,
		loc:         cluster.NewLocalityRegistry(),
		opts:        o,
		jobsByID:    make(map[dag.JobID]*jobRun),
		slotOwner:   make(map[cluster.SlotID]*attempt),
		waiters:     make(map[cluster.SlotID][]*phaseRun),
		lastReserve: make(map[cluster.SlotID]sim.Time),
	}
	d.activateArg = func(a any) { a.(*jobRun).activate() }
	d.onFinishArg = func(a any) { d.onFinish(a.(*attempt)) }
	d.expireDeadlineArg = func(a any) { d.expireDeadline(a.(*phaseRun)) }
	d.openLocalityArg = func(a any) { d.openLocality(a.(*phaseRun)) }
	d.completeDrainArg = func(a any) { d.completeDrain(a.(int)) }
	d.dispatchTick = func(any) {
		t := d.dispatchTimer
		d.dispatchTimer = nil
		d.dispatchScheduled = false
		d.eng.Release(t)
		d.dispatch()
	}
	d.usage = metrics.NewSlotUsage(cl.NumSlots(), eng.Now)
	if ul := d.usage.Listener(); o.Audit != nil || o.Metrics != nil {
		d.resAt = make(map[cluster.SlotID]resInfo)
		cl.SetListener(func(id cluster.SlotID, from, to cluster.SlotState) {
			ul(id, from, to)
			d.onSlotTransition(id, from, to)
		})
	} else {
		cl.SetListener(ul)
	}
	if o.RecordTimeline {
		d.timeline = metrics.NewTimeline(eng.Now)
	}
	if o.Mode == ModeStatic {
		for i := 0; i < o.StaticSlots; i++ {
			res := cluster.Reservation{
				Job:      StaticJobID,
				Priority: o.StaticMinPriority - 1,
			}
			if err := cl.Reserve(cluster.SlotID(i), res); err != nil {
				return nil, fmt.Errorf("driver: static reservation: %w", err)
			}
		}
	}
	return d, nil
}

// Engine returns the driver's simulation engine.
func (d *Driver) Engine() *sim.Engine { return d.eng }

// Cluster returns the driver's cluster.
func (d *Driver) Cluster() *cluster.Cluster { return d.cl }

// Poke schedules a dispatch pass at the current virtual time. The lending
// broker calls it on a shard whose cluster just got capacity back (a loan
// returned home) so waiting work is matched to it within the same instant.
func (d *Driver) Poke() { d.scheduleDispatch() }

// Usage returns the slot usage integrator.
func (d *Driver) Usage() *metrics.SlotUsage { return d.usage }

// Timeline returns the per-job running-slot series, or nil when
// RecordTimeline was not set.
func (d *Driver) Timeline() *metrics.Timeline { return d.timeline }

// Submit registers a job; it activates at job.Submit virtual time. Submit
// must be called before Run.
func (d *Driver) Submit(job *dag.Job) error {
	if _, dup := d.jobsByID[job.ID]; dup {
		return fmt.Errorf("driver: duplicate job ID %d", job.ID)
	}
	if job.ID == StaticJobID {
		return fmt.Errorf("driver: job ID %d is reserved", StaticJobID)
	}
	if md := job.MaxDemand(); md > d.cl.MaxSlotSize() {
		return fmt.Errorf("driver: job %d demands slot size %d but the largest slot is %d",
			job.ID, md, d.cl.MaxSlotSize())
	}
	jr := newJobRun(d, job)
	jr.liveIdx = len(d.live)
	d.live = append(d.live, jr)
	d.jobsByID[job.ID] = jr
	d.eng.PostArg(job.Submit, d.activateArg, jr)
	return nil
}

// Forget drops a finished job's residue (its statistics record) from the
// driver; afterwards Result, Progress and Abort report the ID as unknown.
// The driver never forgets on its own — offline callers read Results after
// Run — so whoever owns the job store decides what outlives a job. It may
// be called from the OnEvent handler of the job's terminal event. Forgetting
// an unknown ID is a no-op; a job that is still live is refused.
func (d *Driver) Forget(id dag.JobID) error {
	jr, ok := d.jobsByID[id]
	if !ok {
		return nil
	}
	if !jr.finished {
		return fmt.Errorf("driver: forget of unfinished job %d", id)
	}
	delete(d.jobsByID, id)
	return nil
}

// Run drives the simulation until every submitted job completes. It returns
// an error if the event queue drains with jobs still unfinished. Absent
// faults that indicates a scheduling bug, not a workload property: without
// preemption every backlogged task eventually gets a slot. With permanent
// node failures it can also mean the surviving capacity cannot host the
// remaining retries; the error distinguishes the two.
func (d *Driver) Run() error {
	if err := d.eng.Run(); err != nil {
		return err
	}
	if n := len(d.live); n > 0 {
		if failed := d.cl.CountState(cluster.Failed); failed > 0 {
			return fmt.Errorf("driver: %d of %d jobs unfinished with %d slots failed (node failures starved the workload)",
				n, len(d.jobsByID), failed)
		}
		return fmt.Errorf("driver: %d of %d jobs unfinished after event queue drained",
			n, len(d.jobsByID))
	}
	// Pin the usage integrals at the drained clock so utilization reads
	// include the interval since the last slot transition.
	d.usage.Finish(d.eng.Now())
	return nil
}

// Results returns the statistics of every job not yet forgotten, sorted by
// job ID.
func (d *Driver) Results() []metrics.JobStats {
	out := make([]metrics.JobStats, 0, len(d.jobsByID))
	for _, jr := range d.jobsByID { //maporder:ok sorted by unique job ID below
		out = append(out, jr.stats)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job.ID < out[j].Job.ID })
	return out
}

// Result returns the statistics of one job; ok is false for unknown (or
// forgotten) IDs.
func (d *Driver) Result(id dag.JobID) (metrics.JobStats, bool) {
	jr, ok := d.jobsByID[id]
	if !ok {
		return metrics.JobStats{}, false
	}
	return jr.stats, true
}

// Makespan returns the latest job finish time observed.
func (d *Driver) Makespan() time.Duration { return d.makespan }

func (d *Driver) ssrConfig() core.Config {
	if d.opts.Mode != ModeSSR {
		return core.Disabled()
	}
	cfg := d.opts.SSR
	cfg.Enabled = true
	return cfg
}

// recordTimeline logs the job's current allocation: busy slots plus
// reserved-idle slots (a reserved slot is allocated to the job in the
// Fig. 13 sense even while it idles across a barrier).
func (d *Driver) recordTimeline(jr *jobRun) {
	if d.timeline != nil {
		d.timeline.Record(jr.job.ID, jr.running+d.cl.ReservedCount(jr.job.ID))
	}
}

// AloneJCT simulates job alone on a fresh cluster of the given size under
// plain work-conserving scheduling and returns its completion time — the
// denominator of the paper's slowdown metric. The locality parameters are
// inherited from opts so alone and contended runs price locality misses
// identically.
func AloneJCT(job *dag.Job, nodes, slotsPerNode int, opts Options) (time.Duration, error) {
	eng := sim.New()
	cl, err := cluster.New(nodes, slotsPerNode)
	if err != nil {
		return 0, err
	}
	alone := Options{
		Mode:           ModeNone,
		LocalityWait:   opts.LocalityWait,
		LocalityFactor: opts.LocalityFactor,
	}
	d, err := New(eng, cl, alone)
	if err != nil {
		return 0, err
	}
	if err := d.Submit(job); err != nil {
		return 0, err
	}
	if err := d.Run(); err != nil {
		return 0, err
	}
	st, ok := d.Result(job.ID)
	if !ok {
		return 0, fmt.Errorf("driver: job %d missing from alone run", job.ID)
	}
	return st.JCT(), nil
}
