package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/estimate"
	"ssr/internal/lifecycle"
	"ssr/internal/metrics"
	"ssr/internal/obs"
	"ssr/internal/realtime"
	"ssr/internal/shard"
	"ssr/internal/sim"
	"ssr/internal/stats"
	"ssr/internal/tenant"
	"ssr/internal/trace"
)

// ErrDraining is returned by Submit once a drain has begun.
var ErrDraining = errors.New("service: draining, not admitting jobs")

// ErrGone is returned by Status for a job the service admitted and no longer
// keeps: it ended longer ago than the newest retainJobs terminal jobs.
var ErrGone = errors.New("service: job evicted from the retained job history")

// retainJobs bounds the job history: the newest retainJobs terminal jobs (in
// the order they ended) stay readable, and an older one answers ErrGone. It is
// 1.25 MB of 128 B entries, YARN's cap on completed applications, and ample
// for a client that reads its jobs back while hundreds of others finish.
const retainJobs = 10000

// Config assembles an online scheduling service.
type Config struct {
	// Nodes and SlotsPerNode size the simulated cluster. With Shards > 1
	// the nodes are split across shards as evenly as possible
	// (shard.NodeSplit).
	Nodes        int
	SlotsPerNode int
	// Shards partitions the cluster into independent scheduler shards,
	// each with its own engine, driver and wall-clock runner. Default 1,
	// which behaves bit-identically to the unsharded service.
	Shards int
	// Router places admitted jobs onto shards (ignored with one shard).
	// Default shard.HashRouter. Online routing sees each shard's
	// outstanding demand rather than instantaneous slot states, which
	// would require stalling every shard's loop on each admission.
	Router shard.Router
	// Lending configures cross-shard SSR slot lending (Shards > 1).
	Lending shard.LendingConfig
	// Driver configures the scheduling policy. Trace and OnEvent set here
	// are honored alongside the service's own wiring; with Shards > 1
	// both are invoked from every shard's loop goroutine (trace.Recorder
	// is locked; a custom OnEvent must be concurrency-safe). Lender must
	// be nil — the service wires its own broker.
	Driver driver.Options
	// Dilation is the virtual-to-real time ratio (realtime.Options).
	Dilation float64
	// BusCapacity bounds event-replay history. Default 65536.
	BusCapacity int
	// BaselineWorkers sizes the pool computing alone-JCT slowdown
	// baselines out of band. Default 2; negative disables slowdowns.
	BaselineWorkers int
	// BaselineQueue bounds pending baseline requests; completed jobs
	// beyond it are counted as dropped. Default 256.
	BaselineQueue int
	// RecordTrace attaches a trace.Recorder capturing every task attempt,
	// exportable at shutdown. With Shards > 1 all shards share it; slot
	// IDs in the trace are then per-shard.
	RecordTrace bool
	// AuditCapacity bounds the reservation-decision audit ring shared by
	// all shards (GET /audit, and the reservation spans of GET
	// /trace?format=perfetto). 0 means obs.DefaultAuditCapacity; negative
	// disables the audit stream entirely.
	AuditCapacity int
	// Tenants is the multi-tenant admission registry (quotas, DRF fair
	// sharing, per-tenant isolation P). Nil creates an empty registry:
	// every tenant is auto-created uncapped on first submission, which
	// behaves identically to a tenancy-unaware service.
	Tenants *tenant.Registry
	// NodeSpeeds are per-node speed factors indexed by global node number
	// (task service times scale by 1/speed); with Shards > 1 the slice is
	// carved along the same NodeSplit as the cluster. Shorter slices leave
	// the remaining nodes at 1; nil keeps the cluster homogeneous.
	NodeSpeeds []float64
	// Autoscale enables elastic node pools. The config applies per shard
	// with Min/Max clamped to each shard's node count; KeepAlive is forced
	// on (an online service never runs out of future jobs) and a nil
	// Slowdown trigger is wired to the service's mean foreground slowdown.
	Autoscale *lifecycle.AutoscaleConfig
	// Adaptive closes the SSR control loop: one estimate.Registry, shared
	// by every shard, observes task completions and deadline outcomes and
	// re-derives each deadline's Eq. 3 knobs from its accepted fits.
	// Estimator state is exported as ssr_estimator_* metric families and
	// served at GET /v1/estimators. Off by default — scheduling then
	// stays bit-identical to a non-adaptive service.
	Adaptive bool
	// Estimator overrides the estimator parameters when Adaptive is set;
	// zero fields take estimate defaults.
	Estimator estimate.Config
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Router == nil {
		c.Router = shard.HashRouter{}
	}
	if c.BusCapacity == 0 {
		c.BusCapacity = 1 << 16
	}
	if c.BaselineWorkers == 0 {
		c.BaselineWorkers = 2
	}
	if c.BaselineQueue <= 0 {
		c.BaselineQueue = 256
	}
	return c
}

// svcShard is one scheduler partition: an engine, cluster and driver of its
// own, driven by its own wall-clock runner. Everything reachable through
// drv is touched only on rt's loop goroutine; the placement gauges at the
// bottom are guarded by Service.mu.
type svcShard struct {
	index int
	nodes int
	eng   *sim.Engine
	cl    *cluster.Cluster
	drv   *driver.Driver
	rt    *realtime.Runner

	assigned int // cumulative jobs routed here; guarded by Service.mu
	pending  int // routed jobs not yet terminal; guarded by Service.mu
	demand   int // peak slot demand of pending jobs; guarded by Service.mu
}

// jobEntry is the service-side record of one admitted job, and all that
// outlives the job until the job table evicts it: 128 bytes whatever the
// job's shape, from which status renders the wire view on every read. Its ID
// is implicit (slot index + 1). The identity and state are current from
// admission on and submit from the hand-off; the progress fields are written
// once, by the job's terminal event. All fields are guarded by Service.mu.
type jobEntry struct {
	name, tenant string
	// job is the DAG while the job lives on its home shard's driver: set
	// by Submit's hand-off, dropped by the terminal event. While it is nil
	// the entry alone answers reads (pending before, final after).
	job *dag.Job
	// phases is what the driver listed of a failed job's phases, nil for
	// every other job (a completed one reports none).
	phases *[]PhaseStatus
	// finish is the driver's finish time, set with finished when the
	// terminal event found the job's Result.
	submit, finish time.Duration
	priority       int
	// maxJobTasks bounds every count below, so each fits an int32.
	demand, tasks, numPhases, shard        int32
	phasesDone, runningSlots, reservedIdle int32
	tasksRun, copiesLaunched, copiesWon    int32
	borrowedSlots, remoteTasks             int32
	state                                  uint8 // jobHole until admission fills the slot
	finished                               bool
}

// A jobEntry's state; jobStates holds their wire names. jobGone, an evicted
// entry, has none: no reader renders one.
const (
	jobHole uint8 = iota
	jobPending
	jobRunning
	jobCompleted
	jobFailed
	jobGone
)

var jobStates = [...]string{"", StatePending, StateRunning, StateCompleted, StateFailed}

// status renders the entry's wire view; id is the entry's job ID.
func (e *jobEntry) status(id int64) JobStatus {
	st := JobStatus{ID: id, Name: e.name, State: jobStates[e.state], Priority: e.priority, SubmittedMs: msOf(e.submit),
		PhasesDone: int(e.phasesDone), NumPhases: int(e.numPhases), RunningSlots: int(e.runningSlots),
		ReservedIdle: int(e.reservedIdle), TasksRun: int(e.tasksRun), CopiesLaunched: int(e.copiesLaunched),
		CopiesWon: int(e.copiesWon), Shard: int(e.shard), BorrowedSlots: int(e.borrowedSlots),
		RemoteTasks: int(e.remoteTasks), Tenant: e.tenant}
	if e.phases != nil {
		st.Phases = *e.phases
	}
	if e.finished {
		st.FinishedMs, st.JCTMs = msOf(e.finish), msOf(e.finish-e.submit)
	}
	return st
}

// set stores the wire view st, which status renders back. The ID is the
// slot's and SubmittedMs the hand-off's submit; FinishedMs and JCTMs render
// from finish when finished (wire milliseconds do not convert back exactly).
func (e *jobEntry) set(st *JobStatus, finish time.Duration, finished bool) {
	e.name, e.tenant, e.priority = st.Name, st.Tenant, st.Priority
	e.state = jobHole
	for i, name := range jobStates {
		if name == st.State {
			e.state = uint8(i)
		}
	}
	e.numPhases, e.shard = int32(st.NumPhases), int32(st.Shard)
	e.phasesDone, e.runningSlots, e.reservedIdle = int32(st.PhasesDone), int32(st.RunningSlots), int32(st.ReservedIdle)
	e.tasksRun, e.copiesLaunched, e.copiesWon = int32(st.TasksRun), int32(st.CopiesLaunched), int32(st.CopiesWon)
	e.borrowedSlots, e.remoteTasks = int32(st.BorrowedSlots), int32(st.RemoteTasks)
	e.phases = nil
	if len(st.Phases) > 0 {
		phases := st.Phases
		e.phases = &phases
	}
	e.finish, e.finished = finish, finished
}

// jobChunk is the number of entries in one chunk of a jobTable.
const jobChunk = 256

// jobTable holds the entries of the admitted jobs it keeps, indexed by ID−1.
// IDs are handed out and their slots added under one Service.mu hold, so the
// table is dense by construction; chunks never move, so a *jobEntry stays valid
// across an unlock. A slot whose admission failed stays zeroed (state jobHole):
// a hole, whose ID is never reused. Guarded by Service.mu.
//
// The history is bounded. ring holds the IDs of the newest len(ring) terminal
// jobs in the order they ended; each retirement past that evicts the oldest,
// whose entry becomes jobGone. Live jobs are never in the ring, so never
// evicted. A full chunk that holds no entry any more is freed and freed chunks
// at the front are trimmed, so the table keeps about (live + len(ring))/256
// chunks. A live job pins its own chunk (32 KB) until it ends and is evicted.
type jobTable struct {
	chunks []*[jobChunk]jobEntry // chunk first+k at k; nil once freed
	held   []uint16              // per chunk: admitted entries neither rolled back nor evicted
	first  int                   // chunks below it are freed and trimmed
	n      int                   // slots handed out: IDs 1..n
	kept   int                   // the sum of held
	ring   []int64               // terminal IDs in the order they ended
	ended  int                   // retirements so far; the next takes ring[ended%len(ring)]
}

// add hands out the next ID and its zeroed slot.
func (t *jobTable) add() (dag.JobID, *jobEntry) {
	if t.n%jobChunk == 0 {
		t.chunks = append(t.chunks, new([jobChunk]jobEntry))
		t.held = append(t.held, 0)
	}
	k := len(t.chunks) - 1
	t.held[k]++
	t.kept++
	t.n++
	return dag.JobID(t.n), &t.chunks[k][(t.n-1)%jobChunk]
}

// get returns job id's entry. An ID never handed out, or a hole in a kept
// chunk, answers nil, nil; an evicted job, or any ID in a freed chunk, answers
// nil, ErrGone.
func (t *jobTable) get(id int64) (*jobEntry, error) {
	if id < 1 || id > int64(t.n) {
		return nil, nil
	}
	i := int(id - 1)
	k := i/jobChunk - t.first
	if k < 0 || t.chunks[k] == nil {
		return nil, ErrGone
	}
	switch e := &t.chunks[k][i%jobChunk]; e.state {
	case jobHole:
		return nil, nil
	case jobGone:
		return nil, ErrGone
	default:
		return e, nil
	}
}

// retire records job id, just ended, as the newest of the retained history,
// evicting the oldest once len(ring) are kept.
func (t *jobTable) retire(id int64) {
	slot := t.ended % len(t.ring)
	if t.ended >= len(t.ring) {
		t.release(t.ring[slot], jobEntry{state: jobGone})
	}
	t.ring[slot] = id
	t.ended++
}

// release overwrites job id's held entry with e — a hole for a rolled-back
// admission, jobGone for an eviction — and frees its chunk if that is full and
// holds nothing else, trimming freed chunks off the front.
func (t *jobTable) release(id int64, e jobEntry) {
	i := int(id - 1)
	k := i/jobChunk - t.first
	t.chunks[k][i%jobChunk] = e
	t.held[k]--
	t.kept--
	if t.held[k] > 0 || (t.first+k+1)*jobChunk > t.n {
		return
	}
	t.chunks[k] = nil
	for len(t.chunks) > 0 && t.chunks[0] == nil {
		t.chunks, t.held, t.first = t.chunks[1:], t.held[1:], t.first+1
	}
}

// walk calls fn with every kept job from slot i on, in ID order, until fn
// returns false. Holes and evicted entries are skipped, freed chunks whole.
func (t *jobTable) walk(i int, fn func(id int64, e *jobEntry) bool) {
	for k := max(i/jobChunk-t.first, 0); k < len(t.chunks); k++ {
		c := t.chunks[k]
		if c == nil {
			continue
		}
		base := (t.first + k) * jobChunk
		for j := max(i-base, 0); j < jobChunk && base+j < t.n; j++ {
			if e := &c[j]; e.state != jobHole && e.state != jobGone && !fn(int64(base+j+1), e) {
				return
			}
		}
	}
}

// handoff carries one Submit onto its home shard's loop. Records come from
// handoffPool with fn bound to run once, when the pool makes the record;
// Submit zeroes every other field before putting one back, so a pooled record
// pins no job.
type handoff struct {
	s      *Service
	sh     *svcShard
	job    *dag.Job
	entry  *jobEntry
	id     dag.JobID
	status JobStatus
	err    error
	fn     func()
}

var handoffPool = sync.Pool{New: func() any {
	h := new(handoff)
	h.fn = h.run
	return h
}}

// run stamps the job's ID and submission time and hands it to the shard's
// driver; it runs on the shard's loop goroutine.
func (h *handoff) run() {
	h.job.ID, h.job.Submit = h.id, h.sh.eng.Now()
	if h.err = h.sh.drv.Submit(h.job); h.err != nil {
		return
	}
	h.s.mu.Lock()
	h.entry.job, h.entry.submit = h.job, h.job.Submit
	h.status = h.s.statusOfLocked(h.sh, h.entry, int64(h.id))
	h.s.mu.Unlock()
}

type baselineReq struct {
	job   *dag.Job
	nodes int
	jct   time.Duration
}

// Service is the concurrency-safe façade over one or more drivers running
// in wall-clock time: job admission with shard routing, state snapshots,
// metrics and the ordered event bus. Every scheduler access is serialized
// onto the owning shard's loop goroutine, preserving each engine's
// single-threaded design; the cross-shard job table is guarded by a mutex
// that is never held across a loop call, so shards stall neither each
// other nor the admission path.
type Service struct {
	cfg     Config
	shards  []*svcShard
	broker  *shard.Broker
	bus     *Bus
	rec     *trace.Recorder
	reg     *obs.Registry
	audit   *obs.Audit
	est     *estimate.Registry
	tenants *tenant.Registry
	gauges  svcGauges

	// mu guards the job table, the service counters and the per-shard
	// placement gauges. Loop goroutines take it briefly inside event
	// hooks; nothing holds it while waiting on a runner Call.
	mu          sync.Mutex
	jobs        jobTable
	outstanding int
	submitted   int
	running     int
	completed   int
	failed      int
	draining    bool
	loads       []shard.Load // loadsLocked's scratch buffer

	baselineCh chan baselineReq
	baselineWG sync.WaitGroup

	sdMu      sync.Mutex
	slowdowns []float64
	sdSum     float64 // the sum of slowdowns, for meanSlowdown
	sdDropped int

	closeOnce sync.Once
}

// New builds and starts a service: per-shard engines, clusters, drivers and
// wall-clock runners, the lending broker (Shards > 1), and the shared event
// bus. The caller must Close it.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("service: Shards %d must be >= 1", cfg.Shards)
	}
	if cfg.Nodes < cfg.Shards {
		return nil, fmt.Errorf("service: %d nodes cannot cover %d shards", cfg.Nodes, cfg.Shards)
	}
	if cfg.Driver.Lender != nil {
		return nil, errors.New("service: Driver.Lender must be nil (the service wires its broker)")
	}
	if cfg.Driver.Audit != nil || cfg.Driver.Metrics != nil {
		return nil, errors.New("service: Driver.Audit/Metrics must be nil (the service wires its own)")
	}
	if cfg.Driver.TenantSSR != nil {
		return nil, errors.New("service: Driver.TenantSSR must be nil (the service wires the tenant registry)")
	}
	if cfg.Driver.Adaptive != nil {
		return nil, errors.New("service: Driver.Adaptive must be nil (set Config.Adaptive; the service wires one shared estimator)")
	}
	if len(cfg.NodeSpeeds) > cfg.Nodes {
		return nil, fmt.Errorf("service: %d node speeds for %d nodes", len(cfg.NodeSpeeds), cfg.Nodes)
	}
	s := &Service{
		cfg:     cfg,
		bus:     NewBus(cfg.BusCapacity),
		reg:     obs.NewRegistry(),
		tenants: cfg.Tenants,
		jobs:    jobTable{ring: make([]int64, retainJobs)},
	}
	if s.tenants == nil {
		s.tenants = tenant.NewRegistry()
	}
	s.tenants.SetCapacity(cfg.Nodes*cfg.SlotsPerNode, 0)
	s.gauges = newSvcGauges(s.reg)
	if cfg.AuditCapacity >= 0 {
		s.audit = obs.NewAudit(cfg.AuditCapacity)
	}
	if cfg.Adaptive {
		s.est = estimate.New(cfg.Estimator)
		s.est.Export(s.reg)
	}
	if cfg.RecordTrace && cfg.Driver.Trace == nil {
		s.rec = trace.NewRecorder()
	} else {
		s.rec = cfg.Driver.Trace
	}

	split := shard.NodeSplit(cfg.Nodes, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		eng := sim.New()
		cl, err := cluster.New(split[i], cfg.SlotsPerNode)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		rt, err := realtime.New(eng, realtime.Options{Dilation: cfg.Dilation})
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, &svcShard{index: i, nodes: split[i], eng: eng, cl: cl, rt: rt})
	}
	s.loads = make([]shard.Load, cfg.Shards)

	if cfg.Shards > 1 && !cfg.Lending.Disabled {
		peers := make([]shard.Peer, cfg.Shards)
		for i, sh := range s.shards {
			peers[i] = shard.Peer{Cluster: sh.cl, Call: sh.rt.Call}
		}
		s.broker = shard.NewAsyncBroker(peers, cfg.Lending)
	}

	for i, sh := range s.shards {
		i, sh := i, sh
		dopts := cfg.Driver
		dopts.Trace = s.rec
		chained := cfg.Driver.OnEvent
		dopts.OnEvent = func(ev driver.Event) {
			retired := s.onDriverEvent(i, ev)
			if chained != nil {
				chained(ev)
			}
			if retired {
				// The entry now holds everything the service will ever
				// serve about the job, so the driver's residue goes too —
				// last, so a chained handler still finds the job's Result.
				// Forget refuses only live jobs; this one just ended.
				_ = sh.drv.Forget(ev.Job)
			}
		}
		if s.broker != nil {
			dopts.Lender = s.broker.Lender(i)
			innerDrain := cfg.Driver.OnDrain
			dopts.OnDrain = func(node int) {
				// Runs on the shard loop inside the drain event: recall
				// this shard's unconsumed loans parked on the draining
				// node before borrowers place more work there.
				s.broker.RecallNode(i, node, sh.eng.Now())
				if innerDrain != nil {
					innerDrain(node)
				}
			}
		}
		// Per-tenant Eq. 3: a tenant with a configured IsolationP gets
		// its own reservation deadline; everyone else inherits the
		// service-wide config unchanged.
		dopts.TenantSSR = func(t string, cfg core.Config) core.Config {
			if p, ok := s.tenants.IsolationP(t); ok {
				cfg.IsolationP = p
			}
			return cfg
		}
		dopts.Audit = s.audit
		dopts.AuditShard = i
		dopts.Metrics = obs.NewSchedMetrics(s.reg,
			obs.Label{Key: "shard", Value: strconv.Itoa(i)})
		if s.est != nil {
			// One estimator shared across shards: a class's tail is a
			// property of the workload, not of the partition it landed
			// on, so every shard's completions sharpen the same fit.
			dopts.Adaptive = s.est
		}
		drv, err := driver.New(sh.eng, sh.cl, dopts)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		sh.drv = drv
		if s.broker != nil {
			s.broker.BindDriver(i, drv)
		}
		// Lifecycle config applies before the runner starts: speeds and the
		// initial pool size must be in place before any task dispatches.
		if lc := shardLifecycle(cfg, split, i, s.meanSlowdown); lc != nil {
			mgr, err := lifecycle.New(drv, *lc)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			mgr.Start()
		}
	}

	if cfg.BaselineWorkers > 0 {
		s.baselineCh = make(chan baselineReq, cfg.BaselineQueue)
		for i := 0; i < cfg.BaselineWorkers; i++ {
			s.baselineWG.Add(1)
			go s.baselineWorker()
		}
	}
	for _, sh := range s.shards {
		sh.rt.Start()
	}
	return s, nil
}

// Close stops the lending broker, every shard's wall-clock loop, the
// baseline workers and the bus. It does not wait for in-flight jobs; use
// Drain first for a graceful stop.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		if s.broker != nil {
			// Drain pending grants/releases while the runners still
			// accept calls, so no slot is stranded mid-loan.
			s.broker.Close()
		}
		for _, sh := range s.shards {
			sh.rt.Stop()
		}
		if s.baselineCh != nil {
			close(s.baselineCh)
		}
		s.baselineWG.Wait()
		s.bus.Close()
	})
}

// Dilation returns the configured virtual-to-real time ratio.
func (s *Service) Dilation() float64 { return s.shards[0].rt.Dilation() }

// NumShards returns the number of scheduler shards.
func (s *Service) NumShards() int { return len(s.shards) }

// Broker returns the cross-shard lending broker, or nil when lending is
// off (one shard, or disabled by config).
func (s *Service) Broker() *shard.Broker { return s.broker }

// Trace returns the attached trace recorder, or nil.
func (s *Service) Trace() *trace.Recorder { return s.rec }

// Registry returns the service's metrics registry: per-shard scheduler
// families plus the service-level gauges WritePrometheus refreshes.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Audit returns the shared reservation-decision audit stream, or nil when
// disabled by Config.AuditCapacity < 0.
func (s *Service) Audit() *obs.Audit { return s.audit }

// Estimators returns the shared adaptive-SSR estimator registry, or nil
// when Config.Adaptive is off.
func (s *Service) Estimators() *estimate.Registry { return s.est }

// Call runs fn on shard 0's loop goroutine with exclusive access to that
// shard's driver (and, through it, its engine and cluster). It exists for
// tests and tools that need views the wire API does not expose; sharded
// services expose the other partitions through CallShard.
func (s *Service) Call(fn func(d *driver.Driver)) error {
	return s.CallShard(0, fn)
}

// CallShard runs fn on shard i's loop goroutine with exclusive access to
// that shard's driver.
func (s *Service) CallShard(i int, fn func(d *driver.Driver)) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("service: no shard %d", i)
	}
	sh := s.shards[i]
	return sh.rt.Call(func() { fn(sh.drv) })
}

// Subscribe attaches an event consumer resuming at sequence number since;
// see Bus.Subscribe.
func (s *Service) Subscribe(since uint64, buffer int) ([]Event, *Subscription) {
	return s.bus.Subscribe(since, buffer)
}

// loadsLocked snapshots every shard's occupancy for the router. Online,
// Busy is the outstanding peak demand routed to the shard (the instant
// slot states live on K loop goroutines; stalling them all per admission
// would serialize the service), so routing tracks commitments rather than
// the momentary schedule. Callers hold s.mu, which also guards the returned
// slice: it is one scratch buffer, overwritten by the next call.
func (s *Service) loadsLocked() []shard.Load {
	for i, sh := range s.shards {
		s.loads[i] = shard.Load{
			Slots:    sh.cl.NumSlots(),
			Busy:     sh.demand,
			Pending:  sh.pending,
			Assigned: sh.assigned,
		}
	}
	return s.loads
}

// Submit validates and admits a job at the current virtual time, routing it
// to a shard, and returns its assigned ID as part of the initial status. It
// fails with ErrDraining once a drain has begun.
func (s *Service) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	if spec.Tenant == "" {
		spec.Tenant = tenant.Default
	}
	// Built once, off the loop, for its shape: the router needs the job's
	// parallelism and demand before a home shard (and so an ID's owner and a
	// submission timestamp) exists. The hand-off stamps both.
	job, err := spec.build(0, 0)
	if err != nil {
		return JobStatus{}, err
	}
	demand, tasks := job.MaxParallelism(), job.TotalTasks()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	// Quota gate before routing: a rejected job never reaches a shard.
	// Lock order is always s.mu -> registry mutex; the TenantSSR hook
	// takes only the registry mutex, so no cycle.
	if err := s.tenants.Admit(spec.Tenant, demand, tasks); err != nil {
		s.mu.Unlock()
		s.audit.Append(obs.AuditEvent{Kind: obs.KindAdmitReject,
			JobName: spec.Name, Tenant: spec.Tenant, Slot: -1, Count: demand})
		return JobStatus{}, err
	}
	// The slot stays a hole unless this admission gets as far as filling it.
	id, entry := s.jobs.add()
	idx := s.cfg.Router.Pick(shard.JobInfo{
		ID:             id,
		Name:           spec.Name,
		Priority:       job.Priority,
		MaxParallelism: demand,
		TotalTasks:     tasks,
		MaxDemand:      job.MaxDemand(),
		Tenant:         spec.Tenant,
	}, s.loadsLocked())
	if idx < 0 || idx >= len(s.shards) {
		s.jobs.release(int64(id), jobEntry{})
		s.tenants.Release(spec.Tenant, demand, tasks)
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("service: router %s picked out-of-range shard %d", s.cfg.Router.Name(), idx)
	}
	sh := s.shards[idx]
	entry.set(&JobStatus{Name: spec.Name, State: StatePending, Priority: spec.Priority,
		NumPhases: job.NumPhases(), Shard: idx, Tenant: spec.Tenant}, 0, false)
	entry.demand, entry.tasks = int32(demand), int32(tasks)
	s.submitted++
	s.outstanding++
	sh.assigned++
	sh.pending++
	sh.demand += demand
	s.mu.Unlock()

	h := handoffPool.Get().(*handoff)
	h.s, h.sh, h.job, h.entry, h.id = s, sh, job, entry, id
	err = sh.rt.Call(h.fn)
	status, serr := h.status, h.err
	*h = handoff{fn: h.fn}
	handoffPool.Put(h)
	if err == nil && serr == nil {
		// Admission decisions happen off the shard loops, so the event
		// carries no virtual timestamp (Time 0); Seq still orders it.
		s.audit.Append(obs.AuditEvent{Kind: obs.KindAdmit, Job: int64(id),
			JobName: spec.Name, Tenant: spec.Tenant, Shard: idx, Slot: -1, Count: demand})
		return status, nil
	}
	// The home shard refused (or its loop is gone): roll the admission back,
	// leaving a hole.
	s.mu.Lock()
	s.jobs.release(int64(id), jobEntry{})
	s.submitted--
	s.outstanding--
	sh.assigned--
	sh.pending--
	sh.demand -= demand
	s.tenants.Release(spec.Tenant, demand, tasks)
	s.mu.Unlock()
	if serr != nil {
		return JobStatus{}, serr
	}
	return JobStatus{}, err
}

// onDriverEvent bridges one shard's driver lifecycle events onto the shared
// bus and keeps the service's job-state machine in step. It runs on the
// originating shard's loop goroutine, inside the simulation event that
// caused it; with multiple shards the bus interleaves their streams, so
// wire timestamps are monotone per shard, not globally. It reports whether
// the event was terminal for a job of this service, i.e. the job was retired.
func (s *Service) onDriverEvent(shardIdx int, ev driver.Event) bool {
	s.bus.Publish(Event{
		TimeMs:  msOf(ev.Time),
		Type:    ev.Type.String(),
		Job:     int64(ev.Job),
		JobName: ev.JobName,
		Phase:   ev.Phase,
		Task:    ev.Task,
		Slot:    int(ev.Slot),
		Copy:    ev.Copy,
		Local:   ev.Local,
		Shard:   shardIdx,
		Count:   ev.Count,
	})
	switch ev.Type {
	case driver.EventJobStart, driver.EventJobDone, driver.EventJobFail:
	default:
		// Only job-lifecycle events touch the service's state machine.
		// Attempt and reservation events — the bulk of the stream — skip
		// s.mu entirely so shard loops do not contend with API readers.
		return false
	}
	sh := s.shards[shardIdx]
	s.mu.Lock()
	entry, _ := s.jobs.get(int64(ev.Job)) // a live job is never gone
	if entry == nil || int(entry.shard) != shardIdx {
		s.mu.Unlock()
		return false // static-partition sentinel or pre-service job
	}
	if ev.Type == driver.EventJobStart {
		entry.state = jobRunning
		s.running++
		s.mu.Unlock()
		return false
	}
	if entry.state == jobRunning {
		s.running--
	}
	demand, tasks := int(entry.demand), int(entry.tasks)
	s.outstanding--
	sh.pending--
	sh.demand -= demand
	if ev.Type == driver.EventJobDone {
		entry.state = jobCompleted
		s.completed++
		s.tenants.Complete(entry.tenant, demand, tasks)
	} else {
		entry.state = jobFailed
		s.failed++
		s.tenants.Release(entry.tenant, demand, tasks)
	}
	// Retire the job in place: the driver's last view of it becomes the
	// entry's final status, the DAG leaves the job table, and the job joins
	// the retained history.
	js, found := sh.drv.Result(ev.Job)
	st := s.statusOfLocked(sh, entry, int64(ev.Job))
	entry.set(&st, js.Finish, found)
	job := entry.job
	entry.job = nil
	s.jobs.retire(int64(ev.Job))
	s.mu.Unlock()
	if ev.Type == driver.EventJobDone && found && s.baselineCh != nil {
		// Slowdown baselines run alone on a cluster shaped like the home
		// shard: that is the isolation the paper's metric normalizes by.
		s.requestBaseline(job, sh.nodes, js.JCT())
	}
	return true
}

// statusOfLocked builds the wire view of job id: the entry's own, overlaid
// with the driver's view of its progress while the job is live (no finish
// stamps: a live job has none, and the terminal event sets them itself).
// Callers hold s.mu and, when entry.job is set, run on the loop goroutine of
// the job's home shard sh.
func (s *Service) statusOfLocked(sh *svcShard, entry *jobEntry, id int64) JobStatus {
	st := entry.status(id)
	if entry.job == nil {
		return st
	}
	if p, ok := sh.drv.Progress(dag.JobID(id)); ok {
		st.PhasesDone = p.PhasesDone
		st.RunningSlots = p.RunningSlots
		st.ReservedIdle = p.ReservedIdle
		for _, ph := range p.Phases {
			ps := PhaseStatus{
				ID:         ph.ID,
				TasksDone:  ph.TasksDone,
				Tasks:      ph.Tasks,
				Running:    ph.Running,
				DeadlineMs: -1,
			}
			if ph.DeadlineAt >= 0 {
				ps.DeadlineMs = msOf(ph.DeadlineAt)
			}
			st.Phases = append(st.Phases, ps)
		}
	}
	if js, ok := sh.drv.Result(dag.JobID(id)); ok {
		st.TasksRun = js.TasksRun
		st.CopiesLaunched = js.CopiesLaunched
		st.CopiesWon = js.CopiesWon
		st.BorrowedSlots = js.BorrowedSlots
		st.RemoteTasks = js.RemoteTasks
	}
	return st
}

// Status returns one job's wire view; found is false for unknown IDs, and for
// an evicted job, which also returns ErrGone. A terminal job (or one whose
// Submit is still in its hand-off) is answered from the job table alone; only
// a live job costs a call onto its shard.
func (s *Service) Status(id int64) (JobStatus, bool, error) {
	s.mu.Lock()
	entry, err := s.jobs.get(id)
	if entry == nil {
		s.mu.Unlock()
		return JobStatus{}, false, err
	}
	if entry.job == nil {
		st := entry.status(id)
		s.mu.Unlock()
		return st, true, nil
	}
	sh := s.shards[entry.shard]
	s.mu.Unlock()
	var (
		st   JobStatus
		gone bool
	)
	err = sh.rt.Call(func() {
		s.mu.Lock()
		// The job may have ended, and been evicted, since the unlock.
		if gone = entry.state == jobGone; !gone {
			st = s.statusOfLocked(sh, entry, id)
		}
		s.mu.Unlock()
	})
	if gone {
		return JobStatus{}, false, ErrGone
	}
	return st, true, err
}

// ListPage returns retained jobs in submission order, starting after the
// given job ID (0 = from the beginning), optionally filtered by tenant,
// and at most limit entries (0 = no limit). NextAfter is the last
// returned job's ID when more matching jobs remain, 0 otherwise.
func (s *Service) ListPage(limit int, after int64, tenantFilter string) (JobList, error) {
	// liveRef is a page slot whose job is live: its status has to be
	// refreshed on the job's home-shard loop.
	type liveRef struct {
		slot  int
		entry *jobEntry
	}
	s.mu.Lock()
	start := int(min(max(after, 0), int64(s.jobs.n))) // slot of the first ID above after
	size := min(s.jobs.n-start, s.jobs.kept)
	if limit > 0 && limit < size {
		size = limit
	} else if tenantFilter != "" {
		// The filter may match none of them: let append grow instead.
		size = 0
	}
	out := JobList{Jobs: make([]JobStatus, 0, size)}
	perShard := make([][]liveRef, len(s.shards))
	s.jobs.walk(start, func(id int64, e *jobEntry) bool {
		if tenantFilter != "" && e.tenant != tenantFilter {
			return true
		}
		if limit > 0 && len(out.Jobs) == limit {
			out.NextAfter = out.Jobs[limit-1].ID
			return false
		}
		if e.job != nil {
			perShard[e.shard] = append(perShard[e.shard], liveRef{len(out.Jobs), e})
		}
		out.Jobs = append(out.Jobs, e.status(id))
		return true
	})
	s.mu.Unlock()
	for k, refs := range perShard {
		if len(refs) == 0 {
			continue
		}
		sh := s.shards[k]
		err := sh.rt.Call(func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, ref := range refs {
				// A job that ended and was evicted since the unlock keeps
				// the view the page took of it.
				if ref.entry.state != jobGone {
					out.Jobs[ref.slot] = s.statusOfLocked(sh, ref.entry, out.Jobs[ref.slot].ID)
				}
			}
		})
		if err != nil {
			return JobList{}, err
		}
	}
	return out, nil
}

// Tenants returns the registry used for admission control.
func (s *Service) Tenants() *tenant.Registry { return s.tenants }

// TenantStatuses returns every tenant's quota and live usage (sorted by
// name), including cross-shard borrowed-slot attribution when lending is
// active.
func (s *Service) TenantStatuses() []TenantStatus {
	snap := s.tenants.Snapshot()
	out := make([]TenantStatus, 0, len(snap))
	for _, t := range snap {
		ts := TenantStatus{
			Name:          t.Name,
			Weight:        t.Weight,
			MaxSlots:      t.MaxSlots,
			IsolationP:    t.IsolationP,
			SlotsInUse:    t.SlotsInUse,
			TasksInFlight: t.TasksInFlight,
			JobsPending:   t.JobsPending,
			DominantShare: t.DominantShare,
			Admitted:      t.Admitted,
			Rejected:      t.Rejected,
			Completed:     t.Completed,
		}
		if s.broker != nil {
			ts.BorrowedSlots = s.broker.BorrowedByTenant(t.Name)
		}
		out = append(out, ts)
	}
	return out
}

// Cluster returns the per-slot cluster view, aggregated across shards.
// Slot IDs are per-shard; the Shard field disambiguates them.
func (s *Service) Cluster() (ClusterStatus, error) {
	var cs ClusterStatus
	if len(s.shards) > 1 {
		cs.NumShards = len(s.shards)
	}
	for _, sh := range s.shards {
		sh := sh
		err := sh.rt.Call(func() {
			cs.Nodes += sh.cl.NumNodes()
			cs.Slots += sh.cl.NumSlots()
			cs.Free += sh.cl.CountState(cluster.Free)
			cs.Reserved += sh.cl.CountState(cluster.Reserved)
			cs.Busy += sh.cl.CountState(cluster.Busy)
			cs.Failed += sh.cl.CountState(cluster.Failed)
			for i := 0; i < sh.cl.NumSlots(); i++ {
				slot := sh.cl.Slot(cluster.SlotID(i))
				ss := SlotStatus{
					ID:    int(slot.ID),
					Shard: sh.index,
					Node:  slot.Node,
					Size:  slot.Size,
					State: slot.State().String(),
				}
				if res, ok := slot.Reservation(); ok {
					ss.ReservedJob = int64(res.Job)
					ss.ReservedPhase = res.Phase
				}
				cs.SlotList = append(cs.SlotList, ss)
			}
		})
		if err != nil {
			return cs, err
		}
	}
	return cs, nil
}

// shardLifecycle derives shard i's lifecycle config from the service-wide
// settings: NodeSpeeds are carved along the same NodeSplit as the cluster,
// and the autoscale pool bounds are clamped to the shard's own node count.
// It returns nil when the service has no lifecycle configuration at all.
func shardLifecycle(cfg Config, split []int, i int, slowdown func() float64) *lifecycle.Config {
	if len(cfg.NodeSpeeds) == 0 && cfg.Autoscale == nil {
		return nil
	}
	off := 0
	for k := 0; k < i; k++ {
		off += split[k]
	}
	var lc lifecycle.Config
	if off < len(cfg.NodeSpeeds) {
		end := off + split[i]
		if end > len(cfg.NodeSpeeds) {
			end = len(cfg.NodeSpeeds)
		}
		lc.Speeds = cfg.NodeSpeeds[off:end]
	}
	if cfg.Autoscale != nil {
		as := *cfg.Autoscale
		as.KeepAlive = true // jobs keep arriving for the service's lifetime
		if as.Max == 0 || as.Max > split[i] {
			as.Max = split[i]
		}
		if as.Min > as.Max {
			as.Min = as.Max
		}
		if as.Slowdown == nil {
			as.Slowdown = slowdown
		}
		lc.Autoscale = &as
	}
	return &lc
}

// meanSlowdown feeds the autoscaler's grow trigger: the mean online
// slowdown recorded so far. It runs on shard loop goroutines each
// evaluation tick, so it reads a running sum in O(1); sdMu is never held
// across a loop call, so no cycle.
func (s *Service) meanSlowdown() float64 {
	s.sdMu.Lock()
	defer s.sdMu.Unlock()
	return s.sdSum / float64(max(len(s.slowdowns), 1)) // 0 before the first
}

// Nodes returns every node's lifecycle view, aggregated across shards.
// Node IDs are per-shard; the Shard field disambiguates them.
func (s *Service) Nodes() ([]NodeStatus, error) {
	var out []NodeStatus
	for _, sh := range s.shards {
		sh := sh
		err := sh.rt.Call(func() {
			for _, ns := range sh.drv.Nodes() {
				w := NodeStatus{
					ID:              ns.Node,
					Shard:           sh.index,
					State:           ns.State.String(),
					Speed:           ns.Speed,
					Pool:            ns.Pool,
					Busy:            ns.Busy,
					Reserved:        ns.Reserved,
					Free:            ns.Free,
					DrainDeadlineMs: -1,
				}
				if ns.DrainDeadline >= 0 {
					w.DrainDeadlineMs = msOf(ns.DrainDeadline)
				}
				out = append(out, w)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DrainNode puts one node on preemption notice (driver.DrainNode): the
// scheduler migrates or re-issues its reservations immediately and lets
// running attempts that fit inside the window finish.
func (s *Service) DrainNode(shardIdx, node int, notice time.Duration) error {
	var derr error
	if err := s.CallShard(shardIdx, func(d *driver.Driver) {
		derr = d.DrainNode(node, notice)
	}); err != nil {
		return err
	}
	return derr
}

// UndrainNode cancels a pending drain notice, returning the node to Up.
func (s *Service) UndrainNode(shardIdx, node int) error {
	var derr error
	if err := s.CallShard(shardIdx, func(d *driver.Driver) {
		derr = d.UndrainNode(node)
	}); err != nil {
		return err
	}
	return derr
}

// Metrics returns the service-wide metrics view: federated totals plus a
// per-shard breakdown (and lending-broker counters) when sharded.
func (s *Service) Metrics() (MetricsStatus, error) {
	type snap struct {
		now                    sim.Time
		busy, reserved, failed int
		slots                  int
		busySec, reservedSec   float64
		up, draining, down     int
		fc                     metrics.FaultCounters
	}
	snaps := make([]snap, len(s.shards))
	for i, sh := range s.shards {
		i, sh := i, sh
		err := sh.rt.Call(func() {
			usage := sh.drv.Usage()
			snaps[i] = snap{
				now:         sh.eng.Now(),
				busy:        sh.cl.CountState(cluster.Busy),
				reserved:    sh.cl.CountState(cluster.Reserved),
				failed:      sh.cl.CountState(cluster.Failed),
				slots:       sh.cl.NumSlots(),
				busySec:     usage.BusyTime().Seconds(),
				reservedSec: usage.ReservedIdleTime().Seconds(),
				up:          sh.cl.CountNodes(cluster.NodeUp),
				draining:    sh.cl.CountNodes(cluster.NodeDraining),
				down:        sh.cl.CountNodes(cluster.NodeDown),
				fc:          sh.drv.Faults(),
			}
		})
		if err != nil {
			return MetricsStatus{}, err
		}
	}

	ms := MetricsStatus{
		Dilation:           s.Dilation(),
		NumShards:          len(s.shards),
		EventsPublished:    s.bus.Published(),
		DroppedSubscribers: s.bus.Dropped(),
	}
	var capSec float64 // slot-seconds of capacity across shards
	for _, sn := range snaps {
		if msv := msOf(sn.now); msv > ms.VirtualNowMs {
			ms.VirtualNowMs = msv
		}
		ms.Slots += sn.slots
		ms.BusySlots += sn.busy
		ms.ReservedSlots += sn.reserved
		ms.FailedSlots += sn.failed
		ms.BusySlotSec += sn.busySec
		ms.ReservedIdleSec += sn.reservedSec
		ms.NodesUp += sn.up
		ms.NodesDraining += sn.draining
		ms.NodesDown += sn.down
		ms.NodeDrains += sn.fc.NodeDrains
		ms.NodeUndrains += sn.fc.NodeUndrains
		ms.AttemptsPreempted += sn.fc.AttemptsPreempted
		ms.ReservationsMigrated += sn.fc.ReservationsMigrated
		ms.ReservationsDrained += sn.fc.ReservationsDrained
		ms.ReservationsReissued += sn.fc.ReservationsReissued
		capSec += sn.now.Seconds() * float64(sn.slots)
	}
	if capSec > 0 {
		ms.Utilization = ms.BusySlotSec / capSec
		ms.ReservedFraction = ms.ReservedIdleSec / capSec
	}

	s.mu.Lock()
	ms.JobsSubmitted = s.submitted
	ms.JobsRunning = s.running
	ms.JobsCompleted = s.completed
	ms.JobsFailed = s.failed
	ms.Draining = s.draining
	if len(s.shards) > 1 {
		for i, sh := range s.shards {
			sn := snaps[i]
			sd := ShardStatus{
				Shard:         sh.index,
				Nodes:         sh.nodes,
				Slots:         sn.slots,
				BusySlots:     sn.busy,
				ReservedSlots: sn.reserved,
				FailedSlots:   sn.failed,
				VirtualNowMs:  msOf(sn.now),
				JobsAssigned:  sh.assigned,
				JobsPending:   sh.pending,
			}
			if sec := sn.now.Seconds() * float64(sn.slots); sec > 0 {
				sd.Utilization = sn.busySec / sec
			}
			if s.broker != nil {
				sd.SlotsLent = s.broker.LentBy(i)
			}
			ms.Shards = append(ms.Shards, sd)
		}
	}
	s.mu.Unlock()

	if s.broker != nil {
		ls := s.broker.Stats()
		ms.Lending = &LendingStatus{
			Requests:    ls.Requests,
			Granted:     ls.Granted,
			Consumed:    ls.Consumed,
			Finished:    ls.Finished,
			Returned:    ls.Returned,
			Outstanding: s.broker.Outstanding(),
		}
	}
	ms.Tenants = s.TenantStatuses()
	ms.Slowdowns = s.slowdownStats()
	return ms, nil
}

// Drain performs the graceful-shutdown protocol: stop admitting (Submit
// returns ErrDraining), wait for in-flight jobs to finish, and — if ctx
// expires first — abort whatever is left, shard by shard. It returns the
// number of jobs aborted. The service is still usable for reads afterwards;
// call Close to stop the loops.
func (s *Service) Drain(ctx context.Context) (int, error) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		s.mu.Lock()
		left := s.outstanding
		s.mu.Unlock()
		if left == 0 {
			return 0, nil
		}
		select {
		case <-ctx.Done():
			s.mu.Lock()
			victims := make([][]dag.JobID, len(s.shards))
			s.jobs.walk(0, func(id int64, e *jobEntry) bool {
				if e.state == jobPending || e.state == jobRunning {
					victims[e.shard] = append(victims[e.shard], dag.JobID(id))
				}
				return true
			})
			s.mu.Unlock()
			aborted := 0
			for k, ids := range victims {
				if len(ids) == 0 {
					continue
				}
				sh := s.shards[k]
				err := sh.rt.Call(func() {
					for _, id := range ids {
						// A job may have finished since the snapshot;
						// Abort then errors and is not counted.
						if err := sh.drv.Abort(id); err == nil {
							aborted++
						}
					}
				})
				if err != nil {
					return aborted, err
				}
			}
			return aborted, nil
		case <-ticker.C:
		}
	}
}

// requestBaseline enqueues an alone-JCT computation for a completed job. A
// full queue drops the sample (counted) rather than stalling the scheduler.
func (s *Service) requestBaseline(job *dag.Job, nodes int, jct time.Duration) {
	if s.baselineCh == nil {
		return
	}
	select {
	case s.baselineCh <- baselineReq{job: job, nodes: nodes, jct: jct}:
	default:
		s.sdMu.Lock()
		s.sdDropped++
		s.sdMu.Unlock()
	}
}

// baselineWorker computes slowdown denominators off the loop goroutines.
// Each alone-run uses a fresh engine and a cluster shaped like the job's
// home shard, so it is independent of the live scheduler and safe to run
// concurrently.
func (s *Service) baselineWorker() {
	defer s.baselineWG.Done()
	for req := range s.baselineCh {
		alone, err := driver.AloneJCT(req.job, req.nodes, s.cfg.SlotsPerNode, s.cfg.Driver)
		s.sdMu.Lock()
		if err != nil || alone <= 0 {
			s.sdDropped++
		} else {
			s.addSlowdownLocked(metrics.Slowdown(req.jct, alone))
		}
		s.sdMu.Unlock()
	}
}

// addSlowdownLocked records one slowdown; callers hold sdMu.
func (s *Service) addSlowdownLocked(sd float64) {
	s.slowdowns = append(s.slowdowns, sd)
	s.sdSum += sd
}

// slowdownStats summarizes the slowdowns recorded so far.
func (s *Service) slowdownStats() SlowdownStats {
	s.sdMu.Lock()
	xs := append([]float64(nil), s.slowdowns...)
	dropped := s.sdDropped
	s.sdMu.Unlock()
	out := SlowdownStats{Count: len(xs), Dropped: dropped}
	if len(xs) == 0 {
		return out
	}
	sort.Float64s(xs)
	out.Mean = stats.Mean(xs)
	out.P50 = stats.Percentile(xs, 0.50)
	out.P95 = stats.Percentile(xs, 0.95)
	out.Max = xs[len(xs)-1]
	return out
}

// String identifies the service configuration for logs.
func (s *Service) String() string {
	if len(s.shards) > 1 {
		return fmt.Sprintf("service: %d nodes x %d slots over %d shards (%s routing), mode %v, dilation %gx",
			s.cfg.Nodes, s.cfg.SlotsPerNode, len(s.shards), s.cfg.Router.Name(),
			s.cfg.Driver.Mode, s.Dilation())
	}
	return fmt.Sprintf("service: %d nodes x %d slots, mode %v, dilation %gx",
		s.cfg.Nodes, s.cfg.SlotsPerNode, s.cfg.Driver.Mode, s.Dilation())
}
