// Package service runs the SSR scheduler as a long-lived online service:
// it layers concurrency-safe job admission, state snapshots and an ordered
// event bus over a driver executing in wall-clock time (internal/realtime),
// and exposes the whole thing over HTTP/JSON plus server-sent events.
//
// The package is split along the paper's prototype boundaries: the driver
// remains the single-threaded scheduling core; Service is the thread-safe
// façade every network handler goes through; the wire types in this file
// are shared by the daemon (cmd/ssrd), the load generator (cmd/ssrload)
// and the programmatic client.
package service

import (
	"fmt"
	"math"
	"time"

	"ssr/internal/dag"
	"ssr/internal/estimate"
)

// msOf converts a virtual duration/timestamp to wire milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durOf converts wire milliseconds to a duration.
func durOf(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// PhaseSpec describes one phase of a submitted job on the wire.
type PhaseSpec struct {
	// DurationsMs gives the base runtime of each task in milliseconds;
	// its length is the phase's degree of parallelism.
	DurationsMs []float64 `json:"durationsMs"`
	// CopyDurationsMs optionally gives per-task speculative-copy
	// runtimes; empty defaults each copy to its task's duration.
	CopyDurationsMs []float64 `json:"copyDurationsMs,omitempty"`
	// Deps lists upstream phase indices within the job.
	Deps []int `json:"deps,omitempty"`
	// Demand is the slot size each task needs; zero means 1.
	Demand int `json:"demand,omitempty"`
}

// JobSpec is the admission request body: a full workflow DAG with
// pre-drawn task durations, mirroring dag.Job construction.
type JobSpec struct {
	// Name labels the job in statuses, traces and events.
	Name string `json:"name"`
	// Priority orders the job against others; higher wins.
	Priority int `json:"priority"`
	// Class is "foreground" (default) or "background".
	Class string `json:"class,omitempty"`
	// ParallelismKnown lets the scheduler use downstream parallelism a
	// priori (recurring production jobs; Algorithm 1, Case 2).
	ParallelismKnown bool `json:"parallelismKnown,omitempty"`
	// Tenant names the submitting tenant for quota accounting and
	// per-tenant isolation; empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Phases is the workflow DAG.
	Phases []PhaseSpec `json:"phases"`
}

// validTenantName restricts tenant names to Prometheus-label-safe
// characters, so per-tenant metric labels never need escaping.
func validTenantName(name string) bool {
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// maxJobTasks caps a job's tasks over all its phases, and so its phases,
// each of which has at least one. The cap keeps every per-job count the
// service stores in an int32; over HTTP the body limit is tighter still.
const maxJobTasks = 1 << 20

// Validate checks the spec without building it.
func (s JobSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("service: job needs a name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("service: job %q has no phases", s.Name)
	}
	switch s.Class {
	case "", "foreground", "background":
	default:
		return fmt.Errorf("service: job %q class %q must be foreground or background", s.Name, s.Class)
	}
	if !validTenantName(s.Tenant) {
		return fmt.Errorf("service: job %q tenant %q must match [a-zA-Z0-9_-]", s.Name, s.Tenant)
	}
	var work time.Duration // total serial work so far
	tasks := 0
	for i, ph := range s.Phases {
		if len(ph.DurationsMs) == 0 {
			return fmt.Errorf("service: job %q phase %d has no tasks", s.Name, i)
		}
		if tasks += len(ph.DurationsMs); tasks > maxJobTasks {
			return fmt.Errorf("service: job %q is too large: more than %d tasks at phase %d", s.Name, maxJobTasks, i)
		}
		if len(ph.CopyDurationsMs) != 0 && len(ph.CopyDurationsMs) != len(ph.DurationsMs) {
			return fmt.Errorf("service: job %q phase %d has %d copy durations for %d tasks",
				s.Name, i, len(ph.CopyDurationsMs), len(ph.DurationsMs))
		}
		for _, ms := range ph.DurationsMs {
			if why := badMs(ms, "task duration"); why != "" {
				return fmt.Errorf("service: job %q phase %d has a %s", s.Name, i, why)
			}
			if work += durOf(ms); work < 0 {
				return fmt.Errorf("service: job %q is too large: its total task duration overflows at phase %d", s.Name, i)
			}
		}
		for _, ms := range ph.CopyDurationsMs {
			if why := badMs(ms, "copy duration"); why != "" {
				return fmt.Errorf("service: job %q phase %d has a %s", s.Name, i, why)
			}
		}
		for _, dep := range ph.Deps {
			if dep < 0 || dep >= len(s.Phases) {
				return fmt.Errorf("service: job %q phase %d dep %d out of range", s.Name, i, dep)
			}
		}
	}
	return nil
}

// badMs says why durOf(ms) would not be a positive time.Duration, or ""
// when it is one. Past the largest Duration the float-to-integer conversion
// is implementation-defined (amd64 yields the most negative value, arm64
// saturates), so such a value must never reach durOf.
func badMs(ms float64, what string) string {
	switch {
	case !(ms > 0): // NaN included
		return "non-positive " + what
	case ms*float64(time.Millisecond) >= math.MaxInt64: // the constant rounds to 2^63; +Inf included
		return what + " too large to schedule"
	}
	return ""
}

// build constructs the immutable dag.Job for a validated spec, converting
// wire milliseconds straight into the job's own task block: the job shares
// no storage with the spec. The full DAG validation (acyclicity, positive
// durations) happens in the dag.Builder.
func (s JobSpec) build(id dag.JobID, submit time.Duration) (*dag.Job, error) {
	tasks, deps := 0, 0
	for i := range s.Phases {
		tasks += len(s.Phases[i].DurationsMs)
		deps += len(s.Phases[i].Deps)
	}
	b := dag.NewBuilder(id, s.Name, dag.Priority(s.Priority), len(s.Phases), tasks, deps)
	for i := range s.Phases {
		ph := &s.Phases[i]
		copies := ph.CopyDurationsMs
		if len(copies) != len(ph.DurationsMs) {
			copies = nil // Validate admits only none or one per task
		}
		ts := b.AddPhase(len(ph.DurationsMs), ph.Deps, ph.Demand)
		for j := range ts {
			ts[j].Duration = durOf(ph.DurationsMs[j])
			ts[j].CopyDuration = ts[j].Duration
			if copies != nil {
				ts[j].CopyDuration = durOf(copies[j])
			}
		}
	}
	job, err := b.Job()
	if err != nil {
		return nil, err
	}
	// Plain field assignments rather than dag's With* options: those cost a
	// closure each and an option slice per job on the admission path.
	job.Submit = submit
	if s.Class == "background" {
		job.Class = dag.Background
	}
	job.ParallelismKnown = s.ParallelismKnown
	job.Tenant = s.Tenant
	return job, nil
}

// SpecOf converts a built dag.Job back into its wire form, so workload
// generators (internal/workload) can feed the online API.
func SpecOf(job *dag.Job) JobSpec {
	spec := JobSpec{
		Name:             job.Name,
		Priority:         int(job.Priority),
		ParallelismKnown: job.ParallelismKnown,
		Tenant:           job.Tenant,
		Phases:           make([]PhaseSpec, job.NumPhases()),
	}
	if job.Class == dag.Background {
		spec.Class = "background"
	} else {
		spec.Class = "foreground"
	}
	for _, ph := range job.Phases() {
		ps := PhaseSpec{
			DurationsMs:     make([]float64, len(ph.Tasks)),
			CopyDurationsMs: make([]float64, len(ph.Tasks)),
			Deps:            append([]int(nil), ph.Deps...),
			Demand:          ph.Demand,
		}
		for i, task := range ph.Tasks {
			ps.DurationsMs[i] = msOf(task.Duration)
			ps.CopyDurationsMs[i] = msOf(task.CopyDuration)
		}
		spec.Phases[ph.ID] = ps
	}
	return spec
}

// Job states reported by JobStatus.State. A job is admitted as
// StatePending, becomes StateRunning when it activates at its virtual
// arrival time, and ends in StateCompleted or StateFailed (abort).
const (
	StatePending   = "pending"
	StateRunning   = "running"
	StateCompleted = "completed"
	StateFailed    = "failed"
)

// TerminalState reports whether a JobStatus.State value is terminal.
func TerminalState(state string) bool {
	return state == StateCompleted || state == StateFailed
}

// PhaseStatus describes one in-flight phase of a running job.
type PhaseStatus struct {
	ID        int `json:"id"`
	TasksDone int `json:"tasksDone"`
	Tasks     int `json:"tasks"`
	Running   int `json:"running"`
	// DeadlineMs is the virtual time the phase's reservation deadline
	// expires, or negative when no deadline is armed.
	DeadlineMs float64 `json:"deadlineMs"`
}

// JobStatus is the wire view of one job.
type JobStatus struct {
	ID          int64   `json:"id"`
	Name        string  `json:"name"`
	State       string  `json:"state"`
	Priority    int     `json:"priority"`
	SubmittedMs float64 `json:"submittedMs"`
	FinishedMs  float64 `json:"finishedMs,omitempty"`
	// JCTMs is the virtual job completion time (finish - submit), set
	// once terminal.
	JCTMs          float64 `json:"jctMs,omitempty"`
	PhasesDone     int     `json:"phasesDone"`
	NumPhases      int     `json:"numPhases"`
	RunningSlots   int     `json:"runningSlots"`
	ReservedIdle   int     `json:"reservedIdle"`
	TasksRun       int     `json:"tasksRun"`
	CopiesLaunched int     `json:"copiesLaunched,omitempty"`
	CopiesWon      int     `json:"copiesWon,omitempty"`
	// Shard is the scheduler shard the job was routed to (always 0 on an
	// unsharded service). BorrowedSlots and RemoteTasks count cross-shard
	// lending activity on the job's behalf.
	Shard         int           `json:"shard,omitempty"`
	BorrowedSlots int           `json:"borrowedSlots,omitempty"`
	RemoteTasks   int           `json:"remoteTasks,omitempty"`
	Phases        []PhaseStatus `json:"phases,omitempty"`
	// Tenant is the job's owning tenant ("default" when none was named).
	Tenant string `json:"tenant,omitempty"`
}

// JobList is the paginated wire view of GET /v1/jobs.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
	// NextAfter is the `after` cursor for the next page, or 0 when this
	// page exhausts the listing.
	NextAfter int64 `json:"nextAfter,omitempty"`
}

// TenantStatus is the wire view of one tenant's quota and usage
// (GET /v1/tenants and the metrics snapshot).
type TenantStatus struct {
	Name string `json:"name"`
	// Weight scales the tenant's DRF fair share.
	Weight float64 `json:"weight"`
	// MaxSlots is the hard slot cap; 0 means unlimited.
	MaxSlots int `json:"maxSlots,omitempty"`
	// IsolationP is the tenant's Eq. 3 override; 0 inherits the
	// service-wide config.
	IsolationP    float64 `json:"isolationP,omitempty"`
	SlotsInUse    int     `json:"slotsInUse"`
	TasksInFlight int     `json:"tasksInFlight"`
	JobsPending   int     `json:"jobsPending"`
	DominantShare float64 `json:"dominantShare"`
	Admitted      int64   `json:"admitted"`
	Rejected      int64   `json:"rejected"`
	Completed     int64   `json:"completed"`
	// BorrowedSlots counts cross-shard loans currently held by the
	// tenant's jobs.
	BorrowedSlots int `json:"borrowedSlots,omitempty"`
}

// SlotStatus is the wire view of one cluster slot. IDs are per-shard:
// (Shard, ID) identifies a slot on a sharded service.
type SlotStatus struct {
	ID    int    `json:"id"`
	Shard int    `json:"shard,omitempty"`
	Node  int    `json:"node"`
	Size  int    `json:"size"`
	State string `json:"state"`
	// ReservedJob/ReservedPhase identify the reservation holder when
	// State is "reserved".
	ReservedJob   int64 `json:"reservedJob,omitempty"`
	ReservedPhase int   `json:"reservedPhase,omitempty"`
}

// NodeStatus is the wire view of one node's lifecycle state
// (GET /v1/nodes). IDs are per-shard: (Shard, ID) identifies a node on a
// sharded service.
type NodeStatus struct {
	ID    int `json:"id"`
	Shard int `json:"shard,omitempty"`
	// State is "up", "draining" or "down".
	State string `json:"state"`
	// Speed is the node's speed factor (1 = baseline; task service times
	// scale by 1/speed).
	Speed float64 `json:"speed"`
	// Pool is the node's elastic pool tag, empty when unpooled.
	Pool string `json:"pool,omitempty"`
	// Busy, Reserved and Free count the node's slots by state; slots parked
	// by a drain count as neither.
	Busy     int `json:"busy"`
	Reserved int `json:"reserved"`
	Free     int `json:"free"`
	// DrainDeadlineMs is the virtual time the node's preemption-notice
	// window closes, negative when it is not draining.
	DrainDeadlineMs float64 `json:"drainDeadlineMs"`
}

// ClusterStatus is the wire view of the whole cluster, aggregated across
// shards; NumShards is set (above 1) when the service is sharded.
type ClusterStatus struct {
	Nodes     int          `json:"nodes"`
	Slots     int          `json:"slots"`
	Free      int          `json:"free"`
	Reserved  int          `json:"reserved"`
	Busy      int          `json:"busy"`
	Failed    int          `json:"failed"`
	NumShards int          `json:"numShards,omitempty"`
	SlotList  []SlotStatus `json:"slotList"`
}

// SlowdownStats summarizes online slowdowns: each completed job's virtual
// JCT normalized by its alone-JCT baseline (simulated out of band on an
// empty cluster of the same shape — the paper's primary metric).
type SlowdownStats struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	Max   float64 `json:"max"`
	// Dropped counts completed jobs whose baseline was skipped because
	// the baseline queue was full.
	Dropped int `json:"dropped,omitempty"`
}

// ShardStatus is one scheduler shard's slice of GET /metrics.
type ShardStatus struct {
	Shard         int `json:"shard"`
	Nodes         int `json:"nodes"`
	Slots         int `json:"slots"`
	BusySlots     int `json:"busySlots"`
	ReservedSlots int `json:"reservedSlots"`
	FailedSlots   int `json:"failedSlots"`
	// VirtualNowMs is the shard's own virtual clock: shards run on
	// independent engines, so their clocks need not agree.
	VirtualNowMs float64 `json:"virtualNowMs"`
	Utilization  float64 `json:"utilization"`
	JobsAssigned int     `json:"jobsAssigned"`
	JobsPending  int     `json:"jobsPending"`
	// SlotsLent counts this shard's slots currently checked out to
	// borrowing siblings.
	SlotsLent int `json:"slotsLent"`
}

// LendingStatus is the cross-shard lending broker's slice of GET /metrics.
type LendingStatus struct {
	Requests    int `json:"requests"`
	Granted     int `json:"granted"`
	Consumed    int `json:"consumed"`
	Finished    int `json:"finished"`
	Returned    int `json:"returned"`
	Outstanding int `json:"outstanding"`
}

// MetricsStatus is the wire view of GET /metrics. On a sharded service the
// top-level figures aggregate every shard (VirtualNowMs is the furthest
// shard clock; Utilization weights each shard by its slot-seconds of
// capacity) and Shards carries the per-shard breakdown.
type MetricsStatus struct {
	VirtualNowMs float64 `json:"virtualNowMs"`
	Dilation     float64 `json:"dilation"`
	Slots        int     `json:"slots"`
	NumShards    int     `json:"numShards"`

	BusySlots     int `json:"busySlots"`
	ReservedSlots int `json:"reservedSlots"`
	FailedSlots   int `json:"failedSlots"`

	// NodesUp, NodesDraining and NodesDown count nodes by lifecycle state
	// across shards; the churn counters below aggregate node-drain and
	// preemption activity since start (GET /v1/nodes has the per-node view).
	NodesUp              int `json:"nodesUp"`
	NodesDraining        int `json:"nodesDraining"`
	NodesDown            int `json:"nodesDown"`
	NodeDrains           int `json:"nodeDrains,omitempty"`
	NodeUndrains         int `json:"nodeUndrains,omitempty"`
	AttemptsPreempted    int `json:"attemptsPreempted,omitempty"`
	ReservationsMigrated int `json:"reservationsMigrated,omitempty"`
	ReservationsDrained  int `json:"reservationsDrained,omitempty"`
	ReservationsReissued int `json:"reservationsReissued,omitempty"`

	// Utilization is busy slot-time over capacity since start;
	// ReservedFraction is the reserved-idle loss over the same horizon
	// (metrics.SlotUsage integrated on the virtual clock).
	Utilization      float64 `json:"utilization"`
	ReservedFraction float64 `json:"reservedFraction"`
	BusySlotSec      float64 `json:"busySlotSec"`
	ReservedIdleSec  float64 `json:"reservedIdleSec"`

	JobsSubmitted int `json:"jobsSubmitted"`
	JobsRunning   int `json:"jobsRunning"`
	JobsCompleted int `json:"jobsCompleted"`
	JobsFailed    int `json:"jobsFailed"`

	EventsPublished uint64 `json:"eventsPublished"`
	// DroppedSubscribers counts event-stream consumers disconnected for
	// lagging behind the bus (they resume via Last-Event-ID).
	DroppedSubscribers int  `json:"droppedSubscribers"`
	Draining           bool `json:"draining"`

	Shards  []ShardStatus  `json:"shards,omitempty"`
	Lending *LendingStatus `json:"lending,omitempty"`
	Tenants []TenantStatus `json:"tenants,omitempty"`

	Slowdowns SlowdownStats `json:"slowdowns"`
}

// EstimatorList is the GET /v1/estimators payload: live adaptive-SSR
// estimator state per (tenant, class), sorted by tenant then class. The
// endpoint 404s when the service runs without Config.Adaptive.
type EstimatorList struct {
	Classes []estimate.ClassSnapshot `json:"classes"`
}

// Event is one scheduler lifecycle event on the wire (SSE data payload).
// Seq is a contiguous bus sequence number; TimeMs is virtual time on the
// originating shard's clock. Phase, Task, Slot, Copy and Local are
// meaningful only for the event types that concern them (phase/attempt/
// reservation events); Count carries the slot count of borrow events.
type Event struct {
	Seq     uint64  `json:"seq"`
	TimeMs  float64 `json:"timeMs"`
	Type    string  `json:"type"`
	Job     int64   `json:"job"`
	JobName string  `json:"jobName,omitempty"`
	Phase   int     `json:"phase"`
	Task    int     `json:"task"`
	Slot    int     `json:"slot"`
	Shard   int     `json:"shard,omitempty"`
	Count   int     `json:"count,omitempty"`
	Copy    bool    `json:"copy,omitempty"`
	Local   bool    `json:"local,omitempty"`
}
