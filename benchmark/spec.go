package main

// This file is the benchmark's declaration: the workloads, every metric's
// name, unit, direction and regression bound, and — for layer metrics — the
// end-to-end metric and workload each is predicted to move. BENCHMARK.json
// at the repository root is generated from it (-manifest) and a test keeps
// the two identical.

// Workload names are fixed; later issues cite them.
const (
	wlSimBatch    = "sim-batch"
	wlSimObserved = "sim-observed"
	wlSvcSaturate = "svc-saturate"
	wlHTTPSubmit  = "http-submit"
	wlHTTPMixed   = "http-mixed"
)

type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	Run func(*runConfig) (*result, error)
}

var workloads = []workloadDef{
	{wlSimBatch, "paper Sec. VI-B cell (1000 nodes, 8000 bg jobs, ML+SQL fg) with no sinks: sim/cluster/sched/core/driver do all the work, service/HTTP/obs none", runSimBatch},
	{wlSimObserved, "same cells with the passive sinks service.New wires (trace, audit, metrics, timeline, bus): every ns over sim-batch is the observability tax", runSimObserved},
	{wlSvcSaturate, "in-process Service.Submit closed loop at dilation 1e6: validation, tenant admit, s.mu, realtime hand-off and the event bridge, no HTTP/JSON", runSvcSaturate},
	{wlHTTPSubmit, "real ssrd child, POST /v1/jobs only over nproc keep-alive connections: JSON, mux and TCP are three quarters of ssrd's CPU per job", runHTTPSubmit},
	{wlHTTPMixed, "same daemon, each POST followed by a status read plus periodic list and Prometheus scrapes: reads share s.mu and the loop hand-off with writes", runHTTPMixed},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference median an end-to-end metric may
	// worsen before a change counts as a regression; 0 on an exact metric
	// (simulated statistics must repeat bit for bit) and on layer metrics.
	Bound float64
	// Gate marks the end-to-end metrics BENCHMARK.json declares, which the
	// driver holds every later change to. Its contract has every workload
	// print every such metric and wants each one's run-to-run spread inside
	// a third of its bound, so a gate metric applies to all five workloads
	// and is a count, not a time: on this shared 2-vCPU machine every wall-
	// and CPU-time figure wanders 6-25 % between ten-second runs (see the
	// README), far past the tenth the issue allows before a metric must be
	// demoted. The other end-to-end metrics are still printed, recorded and
	// compared by -aa; the traced run repeats the three that every workload
	// has as run.* layer metrics so the driver sees them too.
	Gate bool
	// Noisy marks the timings: -aa prints their disagreement and spread but
	// does not fail on them. setup_s is both noisy and gated, because the
	// contract requires it in the gate.
	Noisy bool
	// On lists the workloads that report an end-to-end metric; nil means
	// all five.
	On []string
	// Layer and Moves describe a layer metric: the package it measures and
	// the end-to-end metric → workload it is predicted to move.
	Layer string
	Moves string
	Doc   string
}

var (
	onSim    = []string{wlSimBatch, wlSimObserved}
	onOnline = []string{wlSvcSaturate, wlHTTPSubmit, wlHTTPMixed}
)

// endToEnd are the metrics a user of the system sees. A job is the common
// unit: one simulated job through the driver (sim-*), one accepted
// submission (svc-saturate, http-*).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Noisy: true, Gate: true,
		Doc: "input synthesis, process start, health wait, warm-up; median of five set-ups; excludes go build"},
	{Name: "allocs_per_job", Unit: "count", Better: "lower", Bound: 0.02, Gate: true,
		Doc: "MemStats.Mallocs delta per job, in-process or from ssrd's /debug/vars"},
	{Name: "alloc_kb_per_job", Unit: "KB", Better: "lower", Bound: 0.03, Gate: true,
		Doc: "MemStats.TotalAlloc delta per job: the allocation volume the collector has to chase"},
	{Name: "retained_kb_per_job", Unit: "KB", Better: "lower", Bound: 0.05, Gate: true,
		Doc: "HeapAlloc after a forced GC, end minus start, per job, with the driver or service still alive: what the system keeps per job it has seen"},

	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Noisy: true,
		Doc: "jobs completed per host second: median replication (sim-*), median segment (svc-saturate), median 1 s window (http-*); closed loop with nproc callers, backlog must drain"},
	{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.25, Noisy: true,
		Doc: "CPU (user+system) per job: this process by getrusage (sim-*, svc-saturate), ssrd by /proc (http-*), read after every accepted job completed"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Noisy: true,
		Doc: "VmHWM of the process doing the work (the benchmark child, or ssrd); on http-* it grows with the jobs a run got through, so it inherits the throughput's noise"},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Noisy: true, On: onSim,
		Doc: "engine events per host second over the timed driver.New..Run spans, median replication"},
	{Name: "allocs_per_event", Unit: "count", Better: "lower", Bound: 0.01, On: onSim,
		Doc: "MemStats.Mallocs delta over the timed spans per engine event"},
	{Name: "fg_slowdown_mean", Unit: "ratio", Better: "lower", Bound: 0, On: onSim,
		Doc: "simulated: mean foreground JCT / alone-JCT over the first replications; exact, a speed-up must not touch it"},
	{Name: "reserved_idle_frac", Unit: "fraction", Better: "lower", Bound: 0, On: onSim,
		Doc: "simulated: reserved-idle slot-time / capacity over the first replications (Eq. 4's cost side); exact"},
	{Name: "submit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Noisy: true, On: onOnline,
		Doc: "Submit / POST call time, median over windows of the window median"},
	{Name: "submit_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Noisy: true, On: onOnline,
		Doc: "p99 computed per window (one segment, or 1 s of the timed window); the metric is the median window"},
	{Name: "status_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Noisy: true, On: []string{wlHTTPMixed},
		Doc: "GET /v1/jobs/{id} call time, median over windows of the window median"},
}

// contractEndToEnd are the end-to-end metrics BENCHMARK.json declares.
func contractEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.Gate {
			out = append(out, m)
		}
	}
	return out
}

// runLayerMetrics are the end-to-end timings every workload has, repeated as
// layer metrics of the traced run (measured on its span-free units).
var runLayerMetrics = []string{"jobs_per_s", "cpu_ms_per_job", "peak_rss_mb"}

const (
	mvSim      = "jobs_per_s, events_per_s → sim-batch, sim-observed; nothing on http-*"
	mvSimSmall = "events_per_s → sim-* (small)"
	mvBaseline = "no workload uses it yet: baseline for a later issue"
	mvTax      = "events_per_s → sim-observed only (sim-batch predicted unchanged); second order jobs_per_s → svc-saturate (~19 events/job)"
	mvSubmit   = "jobs_per_s, cpu_ms_per_job, allocs_per_job → svc-saturate"
	mvReads    = "status_p50_ms, jobs_per_s → http-mixed only"
	mvHandler  = "jobs_per_s, cpu_ms_per_job, submit_p50_ms → http-submit, http-mixed; nothing on svc-saturate"
	mvGC       = "follows retained_kb_per_job; drives submit_p99_ms and the open-loop tail on http-*"
	mvLoadgen  = "evidence the numbers measure ssrd, not the generator"
	mvLadder   = "adjacent rungs are the per-job budget; top rung ≈ cpu_ms_per_job(http-submit) + loadgen.cpu_ms_per_job"
)

// perLayer are the traced run's metrics, one group per package. They carry
// no bound: they explain a movement, they do not gate one.
var perLayer = []metricDef{
	{Name: "run.jobs_per_s", Unit: "1/s", Better: "higher", Layer: "run", Moves: "is jobs_per_s of the traced workload", Doc: "the traced workload's own throughput on its span-free units"},
	{Name: "run.cpu_ms_per_job", Unit: "ms", Better: "lower", Layer: "run", Moves: "is cpu_ms_per_job of the traced workload", Doc: "the traced workload's own CPU per job"},
	{Name: "run.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "run", Moves: "is peak_rss_mb of the traced workload", Doc: "the traced workload's own peak resident set"},

	{Name: "sim.schedule_fire_ns", Unit: "ns", Better: "lower", Layer: "sim", Moves: mvSim, Doc: "AtArg + Step on a standing 10k-timer heap"},
	{Name: "sim.schedule_fire_allocs", Unit: "count", Better: "lower", Layer: "sim", Moves: mvSim, Doc: "allocations of the same"},
	{Name: "sim.cancel_ns", Unit: "ns", Better: "lower", Layer: "sim", Moves: mvSim, Doc: "AtArg + Timer.Cancel, heap compaction amortised"},

	{Name: "cluster.acquire_release_ns", Unit: "ns", Better: "lower", Layer: "cluster", Moves: mvSim, Doc: "AcquireFree + Release on 4000 slots"},
	{Name: "cluster.reserve_cancel_ns", Unit: "ns", Better: "lower", Layer: "cluster", Moves: mvSim, Doc: "Reserve + CancelReservation of a busy slot"},
	{Name: "cluster.acquire_reserved_ns", Unit: "ns", Better: "lower", Layer: "cluster", Moves: mvSim, Doc: "Reserve + AcquireReservedFor round"},
	{Name: "cluster.reserved_jobs_ns", Unit: "ns", Better: "lower", Layer: "cluster", Moves: mvSim, Doc: "AppendReservedJobs with 100 reserving jobs"},

	{Name: "sched.priority_best_ns_n1k", Unit: "ns", Better: "lower", Layer: "sched", Moves: mvSim, Doc: "PriorityQueue.Best at depth 1k"},
	{Name: "sched.priority_best_ns_n100k", Unit: "ns", Better: "lower", Layer: "sched", Moves: mvSim, Doc: "PriorityQueue.Best at depth 100k"},
	{Name: "sched.dag_best_ns_n1k", Unit: "ns", Better: "lower", Layer: "sched", Moves: mvBaseline, Doc: "DAGQueue.Best (O(n)) at depth 1k"},
	{Name: "sched.dag_best_ns_n100k", Unit: "ns", Better: "lower", Layer: "sched", Moves: mvBaseline, Doc: "DAGQueue.Best at depth 100k"},
	{Name: "sched.packing_best_ns_n1k", Unit: "ns", Better: "lower", Layer: "sched", Moves: mvBaseline, Doc: "PackingQueue.Best (O(n)) at depth 1k"},
	{Name: "sched.packing_best_ns_n100k", Unit: "ns", Better: "lower", Layer: "sched", Moves: mvBaseline, Doc: "PackingQueue.Best at depth 100k"},
	{Name: "sched.priority_add_remove_ns", Unit: "ns", Better: "lower", Layer: "sched", Moves: mvSim, Doc: "PriorityQueue Add + Remove"},

	{Name: "core.handle_completion_ns", Unit: "ns", Better: "lower", Layer: "core", Moves: mvSimSmall, Doc: "PhaseTracker.HandleCompletion"},
	{Name: "core.deadline_ns", Unit: "ns", Better: "lower", Layer: "core", Moves: mvSimSmall, Doc: "PhaseTracker.DeadlineWith (Eq. 3)"},

	{Name: "workload.background_ns_per_task", Unit: "ns", Better: "lower", Layer: "workload", Moves: "setup_s → sim-*", Doc: "workload.Background synthesis per task"},
	{Name: "dag.new_job_ns_per_task", Unit: "ns", Better: "lower", Layer: "dag", Moves: "setup_s → sim-*; jobs_per_s → svc-saturate (built twice per Submit)", Doc: "dag.NewJob of the 3-phase foreground shape per task"},

	{Name: "driver.submit_ns", Unit: "ns", Better: "lower", Layer: "driver", Moves: mvSubmit, Doc: "Driver.Submit per job"},
	{Name: "driver.ns_per_event", Unit: "ns", Better: "lower", Layer: "driver", Moves: "events_per_s, jobs_per_s → sim-batch", Doc: "bare Sec. VI-B cell: host ns per engine event"},
	{Name: "driver.ns_per_task", Unit: "ns", Better: "lower", Layer: "driver", Moves: "events_per_s, jobs_per_s → sim-batch", Doc: "bare cell: host ns per task run"},
	{Name: "driver.events_per_task", Unit: "count", Better: "lower", Layer: "driver", Moves: "exact count; a change here is a behaviour change", Doc: "engine events per task run, bare cell"},
	{Name: "driver.onevent_per_event", Unit: "count", Better: "lower", Layer: "driver", Moves: "exact count; scales every tax_* below", Doc: "OnEvent callbacks per engine event"},
	{Name: "driver.observed_ns_per_event", Unit: "ns", Better: "lower", Layer: "driver", Moves: "events_per_s, jobs_per_s → sim-observed", Doc: "the cell with every passive sink attached"},
	{Name: "driver.allocs_per_event", Unit: "count", Better: "lower", Layer: "driver", Moves: "allocs_per_event, allocs_per_job → sim-batch", Doc: "mallocs per engine event, bare cell"},
	{Name: "driver.observed_allocs_per_event", Unit: "count", Better: "lower", Layer: "driver", Moves: "allocs_per_event, allocs_per_job → sim-observed", Doc: "mallocs per engine event, every passive sink attached"},
	{Name: "driver.fg_slowdown_mean", Unit: "ratio", Better: "lower", Layer: "driver", Moves: "exact per seed: fg_slowdown_mean → sim-*", Doc: "simulated mean foreground slowdown of the ladder's cell"},
	{Name: "driver.reserved_idle_frac", Unit: "fraction", Better: "lower", Layer: "driver", Moves: "exact per seed: reserved_idle_frac → sim-*", Doc: "simulated reserved-idle share of the ladder's cell"},
	{Name: "driver.tax_trace_ns_per_event", Unit: "ns", Better: "lower", Layer: "driver", Moves: mvTax, Doc: "cell with only trace.Recorder minus bare"},
	{Name: "driver.tax_audit_ns_per_event", Unit: "ns", Better: "lower", Layer: "driver", Moves: mvTax, Doc: "cell with only obs.Audit minus bare"},
	{Name: "driver.tax_metrics_ns_per_event", Unit: "ns", Better: "lower", Layer: "driver", Moves: mvTax, Doc: "cell with only obs.SchedMetrics minus bare"},
	{Name: "driver.tax_timeline_ns_per_event", Unit: "ns", Better: "lower", Layer: "driver", Moves: mvTax, Doc: "cell with only RecordTimeline minus bare"},
	{Name: "driver.tax_bus_ns_per_event", Unit: "ns", Better: "lower", Layer: "driver", Moves: mvTax, Doc: "cell with only OnEvent → service.Event → Bus.Publish minus bare"},
	{Name: "driver.tax_adaptive_ns_per_event", Unit: "ns", Better: "lower", Layer: "driver", Moves: mvBaseline, Doc: "cell with only the estimate.Registry attached minus bare (not passive: decisions may differ)"},
	{Name: "driver.tax_sum_frac", Unit: "fraction", Better: "lower", Layer: "driver", Moves: "closure check: 1 means the single-sink taxes add up to the all-sink one", Doc: "sum of the five passive taxes / (observed - bare ns per event)"},

	{Name: "obs.audit_append_ns", Unit: "ns", Better: "lower", Layer: "obs", Moves: mvTax, Doc: "Audit.Append into a full default ring"},
	{Name: "obs.audit_append_allocs", Unit: "count", Better: "lower", Layer: "obs", Moves: mvTax, Doc: "allocations of the same"},
	{Name: "obs.counter_inc_ns", Unit: "ns", Better: "lower", Layer: "obs", Moves: mvTax, Doc: "Counter.Inc"},
	{Name: "obs.histogram_observe_ns", Unit: "ns", Better: "lower", Layer: "obs", Moves: mvTax, Doc: "Histogram.Observe on the latency buckets"},
	{Name: "obs.prometheus_write_ns", Unit: "ns", Better: "lower", Layer: "obs", Moves: "jobs_per_s → http-mixed only", Doc: "Registry.WritePrometheus of a post-run registry"},
	{Name: "trace.append_ns", Unit: "ns", Better: "lower", Layer: "trace", Moves: mvTax, Doc: "Recorder.Append, slice growth amortised"},

	{Name: "estimate.observe_task_ns", Unit: "ns", Better: "lower", Layer: "estimate", Moves: mvBaseline, Doc: "Registry.ObserveTask including the periodic refit"},
	{Name: "estimate.knobs_ns", Unit: "ns", Better: "lower", Layer: "estimate", Moves: mvBaseline, Doc: "Registry.Knobs"},

	{Name: "tenant.admit_complete_ns", Unit: "ns", Better: "lower", Layer: "tenant", Moves: "jobs_per_s → svc-saturate (small)", Doc: "Admit + Complete, one active tenant"},
	{Name: "tenant.admit_complete_ns_t8", Unit: "ns", Better: "lower", Layer: "tenant", Moves: mvBaseline, Doc: "Admit + Complete, eight active tenants"},
	{Name: "shard.router_pick_ns_k16", Unit: "ns", Better: "lower", Layer: "shard", Moves: mvBaseline, Doc: "LeastLoadedRouter.Pick over 16 loads"},
	{Name: "shard.broker_loan_ns", Unit: "ns", Better: "lower", Layer: "shard", Moves: mvBaseline, Doc: "synchronous broker Borrow → Consume → Finish"},

	{Name: "realtime.call_idle_ns", Unit: "ns", Better: "lower", Layer: "realtime", Moves: "submit_p50_ms, jobs_per_s → svc-saturate (one hand-off per Submit, one more per Status on http-mixed)", Doc: "Runner.Call(noop), idle engine"},
	{Name: "realtime.call_busy_ns", Unit: "ns", Better: "lower", Layer: "realtime", Moves: "submit_p99_ms → svc-saturate, http-*", Doc: "Runner.Call(noop) against a standing chain of due events"},
	{Name: "realtime.fire_lag_p50_us", Unit: "us", Better: "lower", Layer: "realtime", Moves: "the runner-lag figure ROADMAP item 5 wants", Doc: "wall lateness of timed events at dilation 1000, median"},
	{Name: "realtime.fire_lag_p99_us", Unit: "us", Better: "lower", Layer: "realtime", Moves: "the runner-lag figure ROADMAP item 5 wants", Doc: "the same, p99"},

	{Name: "service.submit_ns", Unit: "ns", Better: "lower", Layer: "service", Moves: mvSubmit, Doc: "single-caller Service.Submit, idle service at dilation 1e6"},
	{Name: "service.submit_allocs", Unit: "count", Better: "lower", Layer: "service", Moves: mvSubmit, Doc: "allocations per job of the same, through completion"},
	{Name: "service.submit_self_ns", Unit: "ns", Better: "lower", Layer: "service", Moves: mvSubmit, Doc: "submit - realtime.call_idle - driver.submit - tenant.admit_complete"},
	{Name: "service.status_ns", Unit: "ns", Better: "lower", Layer: "service", Moves: mvReads, Doc: "Service.Status of a retained job"},
	{Name: "service.list_page_ns_tail100k", Unit: "ns", Better: "lower", Layer: "service", Moves: mvReads, Doc: "ListPage(100, newest-100) with 100k jobs retained"},
	{Name: "service.metrics_ns", Unit: "ns", Better: "lower", Layer: "service", Moves: mvReads, Doc: "Service.Metrics"},
	{Name: "service.bus_publish_ns_s0", Unit: "ns", Better: "lower", Layer: "service", Moves: "events_per_s → sim-observed; jobs_per_s → svc-saturate", Doc: "Bus.Publish, no subscriber"},
	{Name: "service.bus_publish_ns_s1", Unit: "ns", Better: "lower", Layer: "service", Moves: mvBaseline, Doc: "Bus.Publish, one draining subscriber"},
	{Name: "service.bus_publish_ns_s64", Unit: "ns", Better: "lower", Layer: "service", Moves: mvBaseline, Doc: "Bus.Publish, 64 draining subscribers"},
	{Name: "service.events_per_job", Unit: "count", Better: "lower", Layer: "service", Moves: "exact for the job mix; scales the bus and sink share of a job", Doc: "bus events published per completed job"},
	{Name: "service.drain_s", Unit: "s", Better: "lower", Layer: "service", Moves: "setup_s and epilogue only", Doc: "Service.Drain after the submit probe's batch"},

	{Name: "http.post_handler_ns", Unit: "ns", Better: "lower", Layer: "http", Moves: mvHandler, Doc: "POST /v1/jobs through NewHandler on a recorder, no TCP"},
	{Name: "http.post_handler_allocs", Unit: "count", Better: "lower", Layer: "http", Moves: mvHandler, Doc: "allocations per job of the same, through completion"},
	{Name: "http.post_self_ns", Unit: "ns", Better: "lower", Layer: "http", Moves: mvHandler, Doc: "post_handler - service.submit"},
	{Name: "http.get_job_handler_ns", Unit: "ns", Better: "lower", Layer: "http", Moves: mvReads, Doc: "GET /v1/jobs/{id} on a recorder"},
	{Name: "http.list_page_handler_ns", Unit: "ns", Better: "lower", Layer: "http", Moves: mvReads, Doc: "GET /v1/jobs?limit=100&after=newest-100 on a recorder"},
	{Name: "http.metrics_prom_handler_ns", Unit: "ns", Better: "lower", Layer: "http", Moves: mvReads, Doc: "GET /v1/metrics?format=prometheus on a recorder"},
	{Name: "http.loopback_rtt_ns", Unit: "ns", Better: "lower", Layer: "http", Moves: mvHandler, Doc: "GET /v1/healthz against ssrd over loopback, keep-alive"},
	{Name: "http.submit_p50_ms", Unit: "ms", Better: "lower", Layer: "http", Moves: "submit_p50_ms → http-submit", Doc: "closed-loop POST phase against ssrd: whole-phase median"},
	{Name: "http.submit_p99_ms", Unit: "ms", Better: "lower", Layer: "http", Moves: "submit_p99_ms → http-submit", Doc: "the same, raw whole-phase p99 (the end-to-end metric is the median 1 s window instead)"},
	{Name: "http.sse_replay_events_per_s", Unit: "1/s", Better: "higher", Layer: "http", Moves: mvBaseline, Doc: "GET /v1/events from seq 0: replayed events per second"},
	{Name: "http.open_submit_p50_ms", Unit: "ms", Better: "lower", Layer: "http", Moves: mvGC, Doc: "open loop at a fixed rate, timed from due time, median"},
	{Name: "http.open_submit_p99_ms", Unit: "ms", Better: "lower", Layer: "http", Moves: mvGC, Doc: "the same, p99"},
	{Name: "http.open_slo_miss_frac", Unit: "fraction", Better: "lower", Layer: "http", Moves: mvGC, Doc: "share of open-loop requests over 20 ms from due time, or failed"},
	{Name: "http.gc_pause_ms_per_kjob", Unit: "ms", Better: "lower", Layer: "http", Moves: mvGC, Doc: "ssrd PauseTotalNs per thousand jobs"},
	{Name: "http.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "http", Moves: mvGC, Doc: "ssrd VmHWM at the end of the session"},

	{Name: "loadgen.lateness_p50_ms", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: mvLoadgen, Doc: "open loop: how late the generator sent against its schedule, median"},
	{Name: "loadgen.lateness_p99_ms", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: mvLoadgen, Doc: "the same, p99"},
	{Name: "loadgen.cpu_ms_per_job", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: mvLoadgen, Doc: "the benchmark process's own CPU per job in the closed-loop session"},

	{Name: "ladder.driver_us_per_job", Unit: "us", Better: "lower", Layer: "ladder", Moves: mvLadder, Doc: "online job mix through a bare engine + driver, CPU per job"},
	{Name: "ladder.sinks_us_per_job", Unit: "us", Better: "lower", Layer: "ladder", Moves: mvLadder, Doc: "plus the sinks service.New wires here: audit ring, scheduler metrics, event bridge to the bus"},
	{Name: "ladder.service_us_per_job", Unit: "us", Better: "lower", Layer: "ladder", Moves: mvLadder, Doc: "through Service.Submit at dilation 1e6"},
	{Name: "ladder.handler_us_per_job", Unit: "us", Better: "lower", Layer: "ladder", Moves: mvLadder, Doc: "plus the HTTP handler on a recorder"},
	{Name: "ladder.tcp_us_per_job", Unit: "us", Better: "lower", Layer: "ladder", Moves: mvLadder, Doc: "plus an in-process loopback server and service.Client"},

	{Name: "ladder.paced_us_per_job", Unit: "us", Better: "lower", Layer: "ladder", Moves: mvLadder, Doc: "the same stack at ssrd's dilation 5000: the runner now sleeps between events and pays a wake-up for most of them"},

	{Name: "bench.build_s", Unit: "s", Better: "lower", Layer: "bench", Moves: "—", Doc: "go build ./cmd/ssrd (not part of setup_s)"},
	{Name: "bench.trace_overhead_frac", Unit: "fraction", Better: "lower", Layer: "bench", Moves: "—", Doc: "1 - jobs_per_s with spans on / with spans off, alternating units of the traced workload"},
}
