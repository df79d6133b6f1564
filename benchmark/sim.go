package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/estimate"
	"ssr/internal/metrics"
	"ssr/internal/obs"
	"ssr/internal/service"
	"ssr/internal/sim"
	"ssr/internal/stats"
	"ssr/internal/trace"
)

// cellSinks selects the observers attached to one offline cell. The passive
// five are the set service.New wires; adaptive closes the estimator loop and
// may change decisions, so only the tax ladder ever sets it.
type cellSinks struct {
	trace, audit, metrics, timeline, bus, adaptive bool
}

var passiveSinks = cellSinks{trace: true, audit: true, metrics: true, timeline: true, bus: true}

// simOptions is the Sec. VI-B scheduling configuration: SSR for the
// foreground class only, 3 s locality wait, 5x miss penalty.
func simOptions(mode driver.Mode) driver.Options {
	return driver.Options{
		Mode:               mode,
		SSR:                core.DefaultConfig(),
		ReserveMinPriority: fgPriority,
		LocalityWait:       3 * time.Second,
		LocalityFactor:     5,
	}
}

// busEvent is the re-encoding service.Service.onDriverEvent performs before
// publishing a driver event.
func busEvent(ev driver.Event) service.Event {
	return service.Event{
		TimeMs:  float64(ev.Time) / float64(time.Millisecond),
		Type:    ev.Type.String(),
		Job:     int64(ev.Job),
		JobName: ev.JobName,
		Phase:   ev.Phase,
		Task:    ev.Task,
		Slot:    int(ev.Slot),
		Copy:    ev.Copy,
		Local:   ev.Local,
		Count:   ev.Count,
	}
}

// attach wires the selected sinks into opts the way service.New does and
// returns what the caller inspects afterwards.
func (s cellSinks) attach(opts *driver.Options) (audit *obs.Audit, reg *obs.Registry, onEvents *uint64) {
	onEvents = new(uint64)
	if s.trace {
		opts.Trace = trace.NewRecorder()
	}
	if s.audit {
		audit = obs.NewAudit(0)
		opts.Audit = audit
	}
	if s.metrics {
		reg = obs.NewRegistry()
		opts.Metrics = obs.NewSchedMetrics(reg, obs.Label{Key: "shard", Value: "0"})
	}
	opts.RecordTimeline = s.timeline
	if s.bus {
		bus := service.NewBus(1 << 16)
		opts.OnEvent = func(ev driver.Event) {
			*onEvents++
			bus.Publish(busEvent(ev))
		}
	}
	if s.adaptive {
		opts.Adaptive = estimate.New(estimate.Config{})
	}
	return audit, reg, onEvents
}

// cellRun is one finished replication.
type cellRun struct {
	events      uint64
	seconds     float64
	alloc       allocCounters
	cpu         time.Duration
	jobs, tasks int
	fingerprint string
	drv         *driver.Driver
	audit       *obs.Audit
	reg         *obs.Registry
	onEvents    uint64
}

func (c *cellRun) jobsPerS() float64   { return float64(c.jobs) / c.seconds }
func (c *cellRun) eventsPerS() float64 { return float64(c.events) / c.seconds }
func (c *cellRun) nsPerEvent() float64 { return c.seconds * 1e9 / float64(c.events) }

// startCell builds a fresh engine, cluster and driver and submits the cell.
func startCell(sz sizes, cell simCell, opts driver.Options) (*sim.Engine, *driver.Driver, error) {
	eng := sim.New()
	cl, err := cluster.New(sz.simNodes, sz.simSlots)
	if err != nil {
		return nil, nil, err
	}
	d, err := driver.New(eng, cl, opts)
	if err != nil {
		return nil, nil, err
	}
	for _, group := range [][]*dag.Job{cell.fg, cell.bg} {
		for _, j := range group {
			if err := d.Submit(j); err != nil {
				return nil, nil, err
			}
		}
	}
	return eng, d, nil
}

// runCell pushes one cell through a fresh engine, cluster and driver. Only
// construction, submission and Run are on the clock.
func runCell(sz sizes, cell simCell, mode driver.Mode, sinks cellSinks, log *spanLog, parent int) (*cellRun, error) {
	opts := simOptions(mode)
	audit, reg, onEvents := sinks.attach(&opts)
	a0 := allocs()
	c0 := cpuTime()
	t0 := time.Now()

	sp := log.begin("driver.submit_all", parent, 0)
	eng, d, err := startCell(sz, cell, opts)
	if err != nil {
		return nil, err
	}
	log.end(sp)
	sp = log.begin("driver.run", parent, 0)
	if err := d.Run(); err != nil {
		return nil, err
	}
	log.end(sp)

	seconds := time.Since(t0).Seconds()
	cpu := cpuTime() - c0
	alloc := allocs().since(a0)

	sp = log.begin("metrics.collect", parent, 0)
	defer log.end(sp)
	run := &cellRun{
		events: eng.Events(), seconds: seconds, alloc: alloc, cpu: cpu,
		jobs: cell.jobs(), drv: d, audit: audit, reg: reg, onEvents: *onEvents,
	}
	var jct time.Duration
	results := d.Results()
	for _, st := range results {
		if st.Failed || st.Finish < st.Submit {
			return nil, fmt.Errorf("job %d did not complete", st.Job.ID)
		}
		jct += st.JCT()
		run.tasks += st.TasksRun
	}
	if len(results) != cell.jobs() {
		return nil, fmt.Errorf("%d jobs submitted, %d reported", cell.jobs(), len(results))
	}
	run.fingerprint = fmt.Sprintf("events=%d makespan=%s jobs=%d jctsum=%s",
		run.events, d.Makespan(), len(results), jct)
	return run, nil
}

// simStats are the simulated statistics of one cell: they depend on the seed
// and the scheduler's decisions only, never on the host.
type simStats struct {
	fgSlowdown   float64
	reservedIdle float64
}

// aloneJCTs simulates each foreground job alone, the denominator of the
// paper's slowdown metric. It depends on the cell only, so SSR, ModeNone and
// observed runs of one cell share it.
func aloneJCTs(sz sizes, cell simCell) ([]time.Duration, error) {
	out := make([]time.Duration, len(cell.fg))
	for i, j := range cell.fg {
		alone, err := driver.AloneJCT(j, sz.simNodes, sz.simSlots, simOptions(driver.ModeNone))
		if err != nil {
			return nil, err
		}
		out[i] = alone
	}
	return out, nil
}

func (c *cellRun) stats(cell simCell, alone []time.Duration) (simStats, error) {
	var sum float64
	for i, j := range cell.fg {
		st, ok := c.drv.Result(j.ID)
		if !ok {
			return simStats{}, fmt.Errorf("foreground job %d missing from run", j.ID)
		}
		sum += metrics.Slowdown(st.JCT(), alone[i])
	}
	return simStats{
		fgSlowdown:   sum / float64(len(cell.fg)),
		reservedIdle: c.drv.Usage().ReservedFraction(c.drv.Makespan()),
	}, nil
}

// auditGapFree checks the retained audit ring: consecutive Seq values and a
// last Seq of Total-1.
func auditGapFree(a *obs.Audit) error {
	evs := a.Events()
	if len(evs) == 0 {
		return fmt.Errorf("audit stream is empty")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			return fmt.Errorf("audit seq jumps %d -> %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if last := evs[len(evs)-1].Seq; last != a.Total()-1 {
		return fmt.Errorf("audit last seq %d, total %d", last, a.Total())
	}
	return nil
}

func runSimBatch(cfg *runConfig) (*result, error) {
	return runSim(cfg, wlSimBatch, cellSinks{})
}

func runSimObserved(cfg *runConfig) (*result, error) {
	return runSim(cfg, wlSimObserved, passiveSinks)
}

// runSim is both offline workloads: replications of the Sec. VI-B cell under
// ModeSSR until the measuring time is up. Unit 0 and unit 1 run the same
// cell, which is the determinism check; from then on unit k runs cell k-1.
func runSim(cfg *runConfig, name string, sinks cellSinks) (*result, error) {
	sz := cfg.sizes()
	res := newResult(name)
	observed := sinks != cellSinks{}

	// Set-up: synthesise the first cell and step it for a fixed time, so the
	// heap and the allocator's size classes are warm before the clock
	// starts. Like the online warm-ups it is a time, not a count: see
	// sizes.svcWarm.
	_, setupS, err := medianSetup(5, func() (struct{}, error) {
		cell, err := buildSimCell(sz, cfg.Seed, 0)
		if err != nil {
			return struct{}{}, err
		}
		opts := simOptions(driver.ModeSSR)
		sinks.attach(&opts)
		eng, _, err := startCell(sz, cell, opts)
		if err != nil {
			return struct{}{}, err
		}
		for t0 := time.Now(); time.Since(t0) < sz.simWarm && eng.Step(); {
		}
		return struct{}{}, nil
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setupS)

	var (
		origin               = time.Now()
		log                  = newSpanLog(origin, 1)
		deadline             = origin.Add(cfg.measure())
		rates, evRates, cpus []float64
		tracedRates          []float64
		retained             []float64
		slowdowns, idles     []float64
		sumMallocs, sumEv    uint64
		sumBytes             uint64
		sumJobs              int
		firstPrint           string
		noneSlowdown         float64
		ssrSlowdown0         float64
		tally                checkTally
	)
	minUnits := sz.simStatReps + 1
	for k := 0; k < minUnits || time.Now().Before(deadline); k++ {
		idx := k - 1
		if idx < 0 {
			idx = 0
		}
		statRep := k >= 1 && idx < sz.simStatReps
		var unitLog *spanLog
		if cfg.Trace && k%2 == 1 {
			unitLog = log
		}
		root := unitLog.begin("replication", -1, 0)

		var h0 uint64
		if statRep {
			h0 = liveHeap()
		}
		sp := unitLog.begin("workload.build", root, 0)
		cell, err := buildSimCell(sz, cfg.Seed, idx)
		unitLog.end(sp)
		if err != nil {
			return nil, err
		}
		run, err := runCell(sz, cell, driver.ModeSSR, sinks, unitLog, root)
		if err != nil {
			res.check("every-job-completes", false, "cell %d: %v", idx, err)
			return res, nil
		}
		unitLog.end(root)

		if unitLog != nil {
			tracedRates = append(tracedRates, run.jobsPerS())
		} else {
			rates = append(rates, run.jobsPerS())
			evRates = append(evRates, run.eventsPerS())
			cpus = append(cpus, float64(run.cpu)/1e6/float64(run.jobs))
		}
		sumMallocs += run.alloc.mallocs
		sumBytes += run.alloc.bytes
		sumEv += run.events
		sumJobs += run.jobs

		switch k {
		case 0:
			firstPrint = run.fingerprint
		case 1:
			res.check("same-seed-same-fingerprint", run.fingerprint == firstPrint,
				"cell 0 twice: %q vs %q", firstPrint, run.fingerprint)
		}
		if !statRep {
			continue
		}
		res.Fingerprints = append(res.Fingerprints, run.fingerprint)

		// Untimed: retained heap, simulated statistics and the checks that
		// need a second run of the cell.
		h1 := liveHeap()
		retained = append(retained, (float64(h1)-float64(h0))/1024/float64(run.jobs))
		alone, err := aloneJCTs(sz, cell)
		if err != nil {
			return nil, err
		}
		st, err := run.stats(cell, alone)
		if err != nil {
			return nil, err
		}
		slowdowns = append(slowdowns, st.fgSlowdown)
		idles = append(idles, st.reservedIdle)
		if observed {
			err := auditGapFree(run.audit)
			tally.add("audit-seq-gap-free", err == nil, "cell %d: %v", idx, err)
			if idx < sz.simObservedCheck {
				bare, err := runCell(sz, cell, driver.ModeSSR, cellSinks{}, nil, -1)
				if err != nil {
					return nil, err
				}
				bst, err := bare.stats(cell, alone)
				if err != nil {
					return nil, err
				}
				tally.add("sinks-are-passive", bare.fingerprint == run.fingerprint && bst == st,
					"cell %d: bare %q %+v, observed %q %+v", idx, bare.fingerprint, bst, run.fingerprint, st)
			}
		}
		if idx == 0 {
			none, err := runCell(sz, cell, driver.ModeNone, cellSinks{}, nil, -1)
			if err != nil {
				return nil, err
			}
			nst, err := none.stats(cell, alone)
			if err != nil {
				return nil, err
			}
			noneSlowdown, ssrSlowdown0 = nst.fgSlowdown, st.fgSlowdown
		}
		runtime.KeepAlive(run)
		runtime.KeepAlive(cell)
	}

	res.check("every-job-completes", true, "")
	tally.report(res)
	res.check("ssr-isolates-foreground", ssrSlowdown0 <= noneSlowdown,
		"cell 0 foreground slowdown: SSR %.4f, ModeNone %.4f", ssrSlowdown0, noneSlowdown)

	cfg.logf("replication jobs/s: min %.0f q1 %.0f median %.0f q3 %.0f max %.0f",
		quantile(rates, 0), quantile(rates, 0.25), median(rates), quantile(rates, 0.75), quantile(rates, 1))
	res.setN("jobs_per_s", median(rates), len(rates))
	res.setN("events_per_s", median(evRates), len(evRates))
	res.setN("cpu_ms_per_job", median(cpus), len(cpus))
	res.set("allocs_per_job", float64(sumMallocs)/float64(sumJobs))
	res.set("alloc_kb_per_job", float64(sumBytes)/1024/float64(sumJobs))
	res.set("allocs_per_event", float64(sumMallocs)/float64(sumEv))
	res.setN("retained_kb_per_job", median(retained), len(retained))
	res.setN("fg_slowdown_mean", stats.Mean(slowdowns), len(slowdowns))
	res.setN("reserved_idle_frac", stats.Mean(idles), len(idles))
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss)
	res.Attempted = sumJobs

	if cfg.Trace {
		res.set("bench.trace_overhead_frac", 1-median(tracedRates)/median(rates))
		if err := finishTrace(cfg, res, []*spanLog{log}); err != nil {
			return nil, err
		}
	}
	return res, nil
}
