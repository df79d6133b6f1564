package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/service"
	"ssr/internal/sim"
)

// runSuite is the workload-independent half of the traced run: the probes,
// the sink tax ladder, the per-job cost ladder and one session against a
// real ssrd. Its metrics land in res beside the traced workload's.
func runSuite(cfg *runConfig, res *result) error {
	// 0.1 s per probe at the contract's ten-second run; -seconds 20 gives the
	// 0.2 s the issue asked for.
	probe := time.Duration(cfg.Seconds / 100 * float64(time.Second))
	if probe > 200*time.Millisecond {
		probe = 200 * time.Millisecond
	}
	if probe < time.Millisecond {
		probe = time.Millisecond
	}
	if err := setProbeTime(probe); err != nil {
		return err
	}
	s := &suite{cfg: cfg, res: res}
	steps := []struct {
		name string
		run  func()
	}{
		{"probes: sim", s.probeSim},
		{"probes: cluster", s.probeCluster},
		{"probes: sched", s.probeSched},
		{"probes: core", s.probeCore},
		{"probes: workload, dag, driver", s.probeWorkload},
		{"tax ladder, probes: obs, trace", s.taxLadder},
		{"probes: estimate", s.probeEstimate},
		{"probes: tenant, shard", s.probeTenantShard},
		{"probes: realtime", s.probeRealtime},
		{"probes: service bus", s.probeBus},
		{"probes: service, http handlers", s.probeService},
		{"cost ladder", s.costLadder},
		{"ssrd session", s.daemonSession},
	}
	for _, st := range steps {
		t0 := time.Now()
		st.run()
		if s.err != nil {
			return fmt.Errorf("layer suite, %s: %w", st.name, s.err)
		}
		cfg.logf("layer suite: %-32s %6.2f s", st.name, time.Since(t0).Seconds())
	}
	m := res.Metrics
	res.set("service.submit_self_ns", m["service.submit_ns"]-m["realtime.call_idle_ns"]-m["driver.submit_ns"]-m["tenant.admit_complete_ns"])
	res.set("http.post_self_ns", m["http.post_handler_ns"]-m["service.submit_ns"])
	return nil
}

// taxLadder prices each sink on the first Sec. VI-B cell in host ns per
// engine event. The machine's speed drifts by a fifth over seconds, far more
// than a sink costs, so every variant run is paired with a bare run made
// right before it and a tax is the median of those paired differences over
// three rounds.
func (s *suite) taxLadder() {
	sz := s.cfg.sizes()
	cell, err := buildSimCell(sz, s.cfg.Seed, 0)
	if err != nil {
		s.fail(err)
		return
	}
	variants := []struct {
		metric string
		sinks  cellSinks
	}{
		{"driver.tax_trace_ns_per_event", cellSinks{trace: true}},
		{"driver.tax_audit_ns_per_event", cellSinks{audit: true}},
		{"driver.tax_metrics_ns_per_event", cellSinks{metrics: true}},
		{"driver.tax_timeline_ns_per_event", cellSinks{timeline: true}},
		{"driver.tax_bus_ns_per_event", cellSinks{bus: true}},
		{"driver.tax_adaptive_ns_per_event", cellSinks{adaptive: true}},
		{"", passiveSinks},
	}
	const rounds = 3
	var (
		bareNs    []float64
		diffs     = make([][]float64, len(variants))
		bare, all *cellRun
	)
	for r := 0; r < rounds; r++ {
		for v, variant := range variants {
			if bare, err = runCell(sz, cell, driver.ModeSSR, cellSinks{}, nil, -1); err != nil {
				s.fail(err)
				return
			}
			run, err := runCell(sz, cell, driver.ModeSSR, variant.sinks, nil, -1)
			if err != nil {
				s.fail(err)
				return
			}
			bareNs = append(bareNs, bare.nsPerEvent())
			diffs[v] = append(diffs[v], run.nsPerEvent()-bare.nsPerEvent())
			all = run // the last variant of a round carries every passive sink
		}
	}
	ns := median(bareNs)
	s.res.setN("driver.ns_per_event", ns, len(bareNs))
	s.res.set("driver.ns_per_task", ns*float64(bare.events)/float64(bare.tasks))
	s.res.set("driver.events_per_task", float64(bare.events)/float64(bare.tasks))
	s.res.set("driver.allocs_per_event", float64(bare.alloc.mallocs)/float64(bare.events))
	s.res.set("driver.observed_allocs_per_event", float64(all.alloc.mallocs)/float64(all.events))
	s.res.set("driver.onevent_per_event", float64(all.onEvents)/float64(all.events))
	var passive float64
	for v, variant := range variants {
		tax := median(diffs[v])
		switch {
		case variant.sinks == passiveSinks:
			s.res.set("driver.observed_ns_per_event", ns+tax)
			s.res.set("driver.tax_sum_frac", passive/tax)
		case variant.sinks.adaptive:
			s.res.set(variant.metric, tax)
		default:
			s.res.set(variant.metric, tax)
			passive += tax
		}
	}

	alone, err := aloneJCTs(sz, cell)
	if err != nil {
		s.fail(err)
		return
	}
	st, err := bare.stats(cell, alone)
	if err != nil {
		s.fail(err)
		return
	}
	s.res.set("driver.fg_slowdown_mean", st.fgSlowdown)
	s.res.set("driver.reserved_idle_frac", st.reservedIdle)
	s.probeObs(all.reg)
}

// postJob pushes one encoded spec through the handler on a recorder.
func postJob(h http.Handler, body []byte) error {
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		return fmt.Errorf("POST /v1/jobs: %d %s", rec.Code, rec.Body.String())
	}
	return nil
}

// getOK pushes one GET through the handler on a recorder.
func getOK(b *testing.B, h http.Handler, url string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("GET %s: %d", url, rec.Code)
	}
}

// probeService times the service layer and the HTTP handlers above it with a
// single caller: Submit and POST on idle services, then the reads against a
// service that retains a long job history.
func (s *suite) probeService() {
	sz := s.cfg.sizes()
	mix, err := buildOnlineMix(s.cfg.Seed)
	if err != nil {
		s.fail(err)
		return
	}
	svc, err := service.New(saturatedConfig(sz, nil))
	if err != nil {
		s.fail(err)
		return
	}
	defer svc.Close()
	n := sz.retainedJobs
	a0 := allocs()
	t0 := time.Now()
	var newest int64
	for i := 0; i < n; i++ {
		st, err := svc.Submit(mix.specs[i%onlineMixSize])
		if err != nil {
			s.fail(err)
			return
		}
		newest = st.ID
	}
	submitNs := float64(time.Since(t0).Nanoseconds()) / float64(n)
	drain, err := drainService(svc)
	if err != nil {
		s.fail(err)
		return
	}
	s.res.set("service.submit_ns", submitNs)
	s.res.set("service.submit_allocs", float64(allocs().since(a0).mallocs)/float64(n))
	s.res.set("service.drain_s", drain.Seconds())
	ms, err := svc.Metrics()
	if err != nil {
		s.fail(err)
		return
	}
	s.res.set("service.events_per_job", float64(ms.EventsPublished)/float64(ms.JobsCompleted))

	after := newest - 100
	if after < 0 {
		after = 0
	}
	s.ns("service.status_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, found, err := svc.Status(newest - int64(i%64)); err != nil || !found {
				b.Fatalf("Status: found=%v err=%v", found, err)
			}
		}
	})
	s.ns("service.list_page_ns_tail100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if page, err := svc.ListPage(100, after, ""); err != nil || len(page.Jobs) == 0 {
				b.Fatalf("ListPage: %d jobs, err=%v", len(page.Jobs), err)
			}
		}
	})
	s.ns("service.metrics_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := svc.Metrics(); err != nil {
				b.Fatal(err)
			}
		}
	})
	h := service.NewHandler(svc)
	s.ns("http.get_job_handler_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			getOK(b, h, fmt.Sprintf("/v1/jobs/%d", newest-int64(i%64)))
		}
	})
	s.ns("http.list_page_handler_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			getOK(b, h, fmt.Sprintf("/v1/jobs?limit=100&after=%d", after))
		}
	})
	s.ns("http.metrics_prom_handler_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			getOK(b, h, "/v1/metrics?format=prometheus")
		}
	})
	if s.err != nil {
		return
	}

	// POST through the handler on a fresh service, single caller.
	svc2, err := service.New(saturatedConfig(sz, nil))
	if err != nil {
		s.fail(err)
		return
	}
	defer svc2.Close()
	h2 := service.NewHandler(svc2)
	n = sz.ladderJobs
	a0 = allocs()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if err := postJob(h2, mix.encoded[i%onlineMixSize]); err != nil {
			s.fail(err)
			return
		}
	}
	postNs := float64(time.Since(t0).Nanoseconds()) / float64(n)
	if _, err := drainService(svc2); err != nil {
		s.fail(err)
		return
	}
	s.res.set("http.post_handler_ns", postNs)
	s.res.set("http.post_handler_allocs", float64(allocs().since(a0).mallocs)/float64(n))
}

// costLadder pushes the online job mix through one more layer per rung and
// reports whole-process CPU microseconds per job, so adjacent differences
// are what each layer costs a job.
func (s *suite) costLadder() {
	sz := s.cfg.sizes()
	mix, err := buildOnlineMix(s.cfg.Seed)
	if err != nil {
		s.fail(err)
		return
	}
	n := sz.ladderJobs

	// Rungs 1 and 2: an offline engine and driver, jobs arriving 0.8
	// virtual seconds apart (about the 20 % utilisation ssrd runs at).
	jobs := make([]*dag.Job, n)
	for i := range jobs {
		if jobs[i], err = mix.job(i, dag.JobID(i+1), time.Duration(i)*800*time.Millisecond); err != nil {
			s.fail(err)
			return
		}
	}
	offline := func(sinks cellSinks) (float64, error) {
		opts := onlineDriverOptions()
		sinks.attach(&opts)
		c0 := cpuTime()
		cl, err := cluster.New(sz.svcNodes, sz.svcSlots)
		if err != nil {
			return 0, err
		}
		d, err := driver.New(sim.New(), cl, opts)
		if err != nil {
			return 0, err
		}
		for _, j := range jobs {
			if err := d.Submit(j); err != nil {
				return 0, err
			}
		}
		if err := d.Run(); err != nil {
			return 0, err
		}
		return float64(cpuTime()-c0) / 1e3 / float64(n), nil
	}

	// Rungs 3 to 5: the service at dilation 1e6, entered one layer further
	// out each time, cfg.Procs closed-loop callers, through Drain.
	online := func(dilation float64, enter func(svc *service.Service) (submit func(i int) error, done func())) (float64, error) {
		conf := saturatedConfig(sz, nil)
		conf.Dilation = dilation
		svc, err := service.New(conf)
		if err != nil {
			return 0, err
		}
		defer svc.Close()
		submit, done := enter(svc)
		defer done()
		c0 := cpuTime()
		_, err = submitAll(s.cfg.Procs, mix, 0, n, nil, func(_, i int, _ *service.JobSpec, _ *spanLog) error { return submit(i) })
		if err != nil {
			return 0, err
		}
		if _, err := drainService(svc); err != nil {
			return 0, err
		}
		return float64(cpuTime()-c0) / 1e3 / float64(n), nil
	}
	direct := func(svc *service.Service) (func(int) error, func()) {
		return func(i int) error {
			_, err := svc.Submit(mix.specs[i%onlineMixSize])
			return err
		}, func() {}
	}
	handler := func(svc *service.Service) (func(int) error, func()) {
		h := service.NewHandler(svc)
		return func(i int) error { return postJob(h, mix.encoded[i%onlineMixSize]) }, func() {}
	}
	loopback := func(svc *service.Service) (func(int) error, func()) {
		srv := httptest.NewServer(service.NewHandler(svc))
		client := service.NewClient(srv.URL)
		client.HTTPClient = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * s.cfg.Procs, DisableCompression: true}}
		return func(i int) error {
				_, err := client.Submit(context.Background(), mix.specs[i%onlineMixSize])
				return err
			}, func() {
				client.HTTPClient.CloseIdleConnections()
				srv.Close()
			}
	}

	// The sinks rung attaches what service.New wires in this configuration
	// (no -trace, so no trace.Recorder, and the service never records the
	// timeline): the audit ring, the scheduler metrics and the event bridge.
	wired := cellSinks{audit: true, metrics: true, bus: true}
	rungs := []struct {
		metric string
		passes int
		run    func() (float64, error)
	}{
		{"ladder.driver_us_per_job", 5, func() (float64, error) { return offline(cellSinks{}) }},
		{"ladder.sinks_us_per_job", 5, func() (float64, error) { return offline(wired) }},
		{"ladder.service_us_per_job", 3, func() (float64, error) { return online(1e6, direct) }},
		{"ladder.handler_us_per_job", 2, func() (float64, error) { return online(1e6, handler) }},
		{"ladder.tcp_us_per_job", 2, func() (float64, error) { return online(1e6, loopback) }},
		{"ladder.paced_us_per_job", 2, func() (float64, error) { return online(5000, loopback) }},
	}
	for _, r := range rungs {
		// The fastest of a few passes: the first also warms the heap, and
		// on CPU time the machine's noise only ever adds. The short rungs
		// get more passes.
		var best float64
		for pass := 0; pass < r.passes; pass++ {
			us, err := r.run()
			if err != nil {
				s.fail(fmt.Errorf("%s: %w", r.metric, err))
				return
			}
			if pass == 0 || us < best {
				best = us
			}
		}
		s.res.set(r.metric, best)
	}
}

// daemonSession is the layer suite's time with a real ssrd, run the way
// http-submit runs it: loopback round trip, a closed-loop POST phase (raw
// whole-phase latencies, GC pause, the generator's own CPU), an SSE replay
// drain, and the open-loop tail at a fixed rate.
func (s *suite) daemonSession() {
	cfg := s.cfg
	sess, err := startSession(cfg, false)
	if err != nil {
		s.fail(err)
		return
	}
	d := sess.d
	defer d.kill()

	w := sess.workers[0]
	s.ns("http.loopback_rtt_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := w.do(http.MethodGet, d.api+"/v1/healthz", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	if s.err != nil {
		return
	}

	warm := sess.accepted()
	if _, err := d.awaitCompleted(warm, 5*time.Second); err != nil {
		s.fail(err)
		return
	}
	before, err := d.stats()
	if err != nil {
		s.fail(err)
		return
	}
	length := time.Duration(cfg.Seconds / runSeconds * float64(3*time.Second))
	c0 := cpuTime()
	origin := time.Now()
	if err := sess.run(origin, nil, func(*httpWorker) bool { return time.Since(origin) >= length }); err != nil {
		s.fail(err)
		return
	}
	ownCPU := cpuTime() - c0
	accepted := sess.accepted()
	jobs := float64(accepted - warm)
	m, err := d.awaitCompleted(accepted, 5*time.Second)
	if err != nil {
		s.fail(err)
		return
	}
	after, err := d.stats()
	if err != nil {
		s.fail(err)
		return
	}
	var posts []int64
	for _, w := range sess.workers {
		for _, p := range w.posts {
			posts = append(posts, int64(p.dur))
		}
	}
	pq := nsQuantiles(posts, 0.5, 0.99)
	s.res.setN("http.submit_p50_ms", pq[0], len(posts))
	s.res.setN("http.submit_p99_ms", pq[1], len(posts))
	s.res.set("http.gc_pause_ms_per_kjob", float64(after.pauseTotalNs-before.pauseTotalNs)/1e6/jobs*1000)
	s.res.set("loadgen.cpu_ms_per_job", float64(ownCPU)/1e6/jobs)

	want := m.EventsPublished
	if want > 1<<16 {
		want = 1 << 16 // the bus retains its last 65536 events
	}
	events, took, err := sseReplay(d, want)
	if err != nil {
		s.fail(err)
		return
	}
	s.res.setN("http.sse_replay_events_per_s", float64(events)/took.Seconds(), events)

	ol := openLoop(sess, cfg.sizes().openRate, length)
	if len(ol.fromDue) == 0 {
		s.fail(fmt.Errorf("open loop: all %d requests failed", ol.failed))
		return
	}
	missed := ol.failed
	for _, ns := range ol.fromDue {
		if ns > int64(20*time.Millisecond) {
			missed++
		}
	}
	total := len(ol.fromDue) + ol.failed
	oq := nsQuantiles(ol.fromDue, 0.5, 0.99)
	lq := nsQuantiles(ol.lateness, 0.5, 0.99)
	s.res.setN("http.open_submit_p50_ms", oq[0], total)
	s.res.setN("http.open_submit_p99_ms", oq[1], total)
	s.res.set("http.open_slo_miss_frac", float64(missed)/float64(total))
	s.res.set("loadgen.lateness_p50_ms", lq[0])
	s.res.set("loadgen.lateness_p99_ms", lq[1])

	if _, err := d.awaitCompleted(sess.accepted(), 5*time.Second); err != nil {
		s.fail(err)
		return
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		s.fail(err)
		return
	}
	s.res.set("http.peak_rss_mb", rss)
	s.fail(d.terminate())
}

// printBudget prints the per-job cost budget the ladder measured: what a job
// costs through the daemon's whole stack and each layer's share of it.
func printBudget(w io.Writer, m map[string]float64) {
	top := m["ladder.tcp_us_per_job"]
	if top <= 0 {
		return
	}
	rungs := []struct {
		label    string
		from, to string
	}{
		{"scheduler (engine, cluster, queue, driver)", "", "ladder.driver_us_per_job"},
		{"sinks the service wires (audit, metrics, event bus)", "ladder.driver_us_per_job", "ladder.sinks_us_per_job"},
		{"service (validate, build x2, admit, s.mu, hand-off)", "ladder.sinks_us_per_job", "ladder.service_us_per_job"},
		{"HTTP handler (mux, JSON decode and encode)", "ladder.service_us_per_job", "ladder.handler_us_per_job"},
		{"TCP, net/http server and client", "ladder.handler_us_per_job", "ladder.tcp_us_per_job"},
	}
	fmt.Fprintf(w, "\nper-job cost budget: a job costs %.1f CPU-us through the whole stack\n", top)
	for _, r := range rungs {
		d := m[r.to] - m[r.from]
		fmt.Fprintf(w, "  %-54s %7.1f us %5.1f %%\n", r.label, d, 100*d/top)
	}
}
