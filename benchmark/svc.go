package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"ssr/internal/core"
	"ssr/internal/driver"
	"ssr/internal/service"
)

// onlineDriverOptions is the scheduling configuration ssrd's flags give at
// "-mode ssr": SSR for every job, P = 0.9, alpha 1.6, R = 0.5. The in-process
// workloads and the ladder use it so their rungs compare with the daemon.
func onlineDriverOptions() driver.Options {
	return driver.Options{
		Mode: driver.ModeSSR,
		SSR: core.Config{
			Enabled:             true,
			IsolationP:          0.9,
			Alpha:               1.6,
			PreReserveThreshold: 0.5,
		},
	}
}

// saturatedConfig is the in-process service of svc-saturate: dilation 1e6
// makes wall time CPU time (the runner never sleeps on a virtual delay) and
// the slowdown baseline workers are off because they shed by dropping under
// load, which would make their cost load-dependent noise.
func saturatedConfig(sz sizes, onEvent func(driver.Event)) service.Config {
	opts := onlineDriverOptions()
	opts.OnEvent = onEvent
	return service.Config{
		Nodes:           sz.svcNodes,
		SlotsPerNode:    sz.svcSlots,
		Dilation:        1e6,
		BaselineWorkers: -1,
		Driver:          opts,
	}
}

// submitAll pushes jobs [from, from+n) of the mix through submit from
// cfg.Procs closed-loop callers and returns each call's duration. job i uses
// spec i mod 1024, whichever caller sends it.
func submitAll(procs int, mix *onlineMix, from, n int, logs []*spanLog,
	submit func(caller, i int, spec *service.JobSpec, log *spanLog) error) ([]int64, error) {
	lat := make([]int64, n)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var log *spanLog
			if logs != nil {
				log = logs[c]
			}
			for i := c; i < n; i += procs {
				t0 := time.Now()
				if err := submit(c, from+i, &mix.specs[(from+i)%onlineMixSize], log); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				lat[i] = int64(time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	return lat, firstErr
}

// svcSegment is one measured segment of svc-saturate on a fresh service.
type svcSegment struct {
	jobsPerS, p50, p99  float64
	cpuMs, allocs, kept float64
	allocKB             float64
	traced              bool
}

// jobStamps are the wall-clock stamps behind the job.admit_to_* spans of a
// traced segment, indexed by job ID. Submitters write admit, the shard loop
// writes the other two, and they are read only after Close has joined the
// loop.
type jobStamps struct {
	admit, dispatch, done []time.Time
}

func runSvcSegment(cfg *runConfig, mix *onlineMix, logs []*spanLog, tally *checkTally) (*svcSegment, error) {
	sz := cfg.sizes()
	total := sz.svcWarmJobs + sz.svcSegmentJobs
	var (
		stamps  *jobStamps
		onEvent func(driver.Event)
	)
	if logs != nil {
		stamps = &jobStamps{
			admit:    make([]time.Time, total+1),
			dispatch: make([]time.Time, total+1),
			done:     make([]time.Time, total+1),
		}
		onEvent = func(ev driver.Event) {
			id := int(ev.Job)
			if id < 1 || id > total {
				return
			}
			switch ev.Type {
			case driver.EventAttemptStart:
				if stamps.dispatch[id].IsZero() {
					stamps.dispatch[id] = time.Now()
				}
			case driver.EventJobDone:
				stamps.done[id] = time.Now()
			}
		}
	}
	svc, err := service.New(saturatedConfig(sz, onEvent))
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	ids := make([]int64, total)
	submit := func(_, i int, spec *service.JobSpec, log *spanLog) error {
		t0 := time.Now()
		st, err := svc.Submit(*spec)
		if err != nil {
			return fmt.Errorf("Submit job %d: %w", i, err)
		}
		if !legalStates[st.State] {
			return fmt.Errorf("Submit job %d: state %q", i, st.State)
		}
		ids[i] = st.ID
		if log != nil {
			t1 := time.Now()
			log.add("service.Submit", t0, t1, -1, st.ID)
			if st.ID >= 1 && int(st.ID) <= total {
				stamps.admit[st.ID] = t0
			}
		}
		return nil
	}
	if _, err := submitAll(cfg.Procs, mix, 0, sz.svcWarmJobs, nil, submit); err != nil {
		return nil, err
	}

	h0 := liveHeap()
	a0 := allocs()
	c0 := cpuTime()
	t0 := time.Now()
	lat, err := submitAll(cfg.Procs, mix, sz.svcWarmJobs, sz.svcSegmentJobs, logs, submit)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	aborted, err := svc.Drain(ctx)
	cancel()
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0).Seconds()
	cpu := cpuTime() - c0
	alloc := allocs().since(a0)
	h1 := liveHeap()

	n := float64(sz.svcSegmentJobs)
	q := nsQuantiles(lat, 0.5, 0.99)
	seg := &svcSegment{
		jobsPerS: n / wall, p50: q[0], p99: q[1],
		cpuMs:  float64(cpu) / 1e6 / n,
		allocs: float64(alloc.mallocs) / n, allocKB: float64(alloc.bytes) / 1024 / n,
		kept:   (float64(h1) - float64(h0)) / 1024 / n,
		traced: logs != nil,
	}

	ms, err := svc.Metrics()
	if err != nil {
		return nil, err
	}
	seen := make(map[int64]bool, total)
	for _, id := range ids {
		seen[id] = true
	}
	tally.add("backlog-drains", aborted == 0, "%d jobs aborted by Drain", aborted)
	tally.add("completed-equals-accepted", ms.JobsCompleted == total, "accepted %d, completed %d", total, ms.JobsCompleted)
	tally.add("no-job-failed", ms.JobsFailed == 0, "jobsFailed %d", ms.JobsFailed)
	tally.add("no-dropped-subscriber", ms.DroppedSubscribers == 0, "droppedSubscribers %d", ms.DroppedSubscribers)
	tally.add("job-ids-unique", len(seen) == total, "%d ids for %d jobs", len(seen), total)
	if stamps != nil {
		svc.Close() // joins the shard loop: its stamps are now visible
		for id := sz.svcWarmJobs + 1; id <= total; id++ {
			if stamps.admit[id].IsZero() || stamps.done[id].IsZero() {
				continue
			}
			logs[0].add("job.admit_to_first_dispatch", stamps.admit[id], stamps.dispatch[id], -1, int64(id))
			logs[0].add("job.admit_to_done", stamps.admit[id], stamps.done[id], -1, int64(id))
		}
	}
	return seg, nil
}

// runSvcSaturate measures segments of a fixed job count, each on a fresh
// service and ended by Drain, until the measuring time is up (at least
// three), and reports the median segment.
func runSvcSaturate(cfg *runConfig) (*result, error) {
	res := newResult(wlSvcSaturate)
	sz := cfg.sizes()

	// Set-up: draw and encode the mix, start a service, warm it up for a
	// fixed time, drain it.
	mix, setupS, err := medianSetup(5, func() (*onlineMix, error) {
		mix, err := buildOnlineMix(cfg.Seed)
		if err != nil {
			return nil, err
		}
		svc, err := service.New(saturatedConfig(sz, nil))
		if err != nil {
			return nil, err
		}
		defer svc.Close()
		for t0, i := time.Now(), 0; time.Since(t0) < sz.svcWarm; i++ {
			if _, err := svc.Submit(mix.specs[i%onlineMixSize]); err != nil {
				return nil, err
			}
		}
		_, err = drainService(svc)
		return mix, err
	}, func(*onlineMix) {})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setupS)

	origin := time.Now()
	deadline := origin.Add(cfg.measure())
	var logs []*spanLog
	if cfg.Trace {
		for c := 0; c < cfg.Procs; c++ {
			logs = append(logs, newSpanLog(origin, c+1))
		}
	}
	var (
		segs  []*svcSegment
		tally checkTally
	)
	for k := 0; k < 3 || time.Now().Before(deadline); k++ {
		var unitLogs []*spanLog
		if cfg.Trace && k%2 == 1 {
			unitLogs = logs
		}
		seg, err := runSvcSegment(cfg, mix, unitLogs, &tally)
		if err != nil {
			res.Attempted += sz.svcSegmentJobs
			res.Failed++
			res.check("every-submit-accepted", false, "segment %d: %v", k, err)
			return res, nil
		}
		segs = append(segs, seg)
		res.Attempted += sz.svcWarmJobs + sz.svcSegmentJobs
	}
	res.check("every-submit-accepted", true, "")
	tally.report(res)

	col := func(f func(*svcSegment) float64, traced bool) []float64 {
		var out []float64
		for _, s := range segs {
			if s.traced == traced {
				out = append(out, f(s))
			}
		}
		return out
	}
	rates := col(func(s *svcSegment) float64 { return s.jobsPerS }, false)
	n := len(rates)
	res.setN("jobs_per_s", median(rates), n)
	res.setN("submit_p50_ms", median(col(func(s *svcSegment) float64 { return s.p50 }, false)), n*sz.svcSegmentJobs)
	res.setN("submit_p99_ms", median(col(func(s *svcSegment) float64 { return s.p99 }, false)), n*sz.svcSegmentJobs)
	res.setN("cpu_ms_per_job", median(col(func(s *svcSegment) float64 { return s.cpuMs }, false)), n)
	res.setN("allocs_per_job", median(col(func(s *svcSegment) float64 { return s.allocs }, false)), n)
	res.setN("alloc_kb_per_job", median(col(func(s *svcSegment) float64 { return s.allocKB }, false)), n)
	res.setN("retained_kb_per_job", median(col(func(s *svcSegment) float64 { return s.kept }, false)), n)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss)

	if cfg.Trace {
		res.set("bench.trace_overhead_frac", 1-median(col(func(s *svcSegment) float64 { return s.jobsPerS }, true))/median(rates))
		if err := finishTrace(cfg, res, logs); err != nil {
			return nil, err
		}
	}
	return res, nil
}
