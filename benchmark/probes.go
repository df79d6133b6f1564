package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/estimate"
	"ssr/internal/obs"
	"ssr/internal/realtime"
	"ssr/internal/sched"
	"ssr/internal/service"
	"ssr/internal/shard"
	"ssr/internal/sim"
	"ssr/internal/stats"
	"ssr/internal/tenant"
	"ssr/internal/trace"
	"ssr/internal/workload"
)

// The probes time each layer's public calls in a tight loop with the
// standard library's own benchmark runner (testing.Benchmark), so ns/op and
// allocs/op mean what they mean under go test -bench.

// suite carries the layer suite's state from one group of probes to the next.
type suite struct {
	cfg *runConfig
	res *result
	err error
}

// setProbeTime fixes how long each probe loops.
func setProbeTime(d time.Duration) error {
	testing.Init()
	return flag.Set("test.benchtime", d.String())
}

// bench runs one probe and returns ns/op and allocs/op.
func (s *suite) bench(name string, fn func(b *testing.B)) (ns, allocs float64) {
	if s.err != nil {
		return 0, 0
	}
	r := testing.Benchmark(fn)
	if r.N == 0 {
		s.err = fmt.Errorf("probe %s failed", name)
		return 0, 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N), float64(r.MemAllocs) / float64(r.N)
}

// ns runs one probe and records its ns/op under name.
func (s *suite) ns(name string, fn func(b *testing.B)) float64 {
	v, _ := s.bench(name, fn)
	s.res.set(name, v)
	return v
}

func (s *suite) fail(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

type timerHolder struct{ t *sim.Timer }

func (s *suite) probeSim() {
	const standing = 10000
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	deltas := make([]time.Duration, 4096)
	for i := range deltas {
		deltas[i] = time.Duration(1 + rng.Int63n(int64(time.Hour)))
	}
	ns, allocs := s.bench("sim.schedule_fire_ns", func(b *testing.B) {
		eng := sim.New()
		holders := make([]timerHolder, standing+1)
		free := make([]*timerHolder, 0, standing+1)
		for i := range holders {
			free = append(free, &holders[i])
		}
		fire := func(a any) {
			h := a.(*timerHolder)
			eng.Release(h.t)
			free = append(free, h)
		}
		schedule := func(i int) {
			h := free[len(free)-1]
			free = free[:len(free)-1]
			h.t = eng.AtArg(eng.Now()+deltas[i%len(deltas)], fire, h)
		}
		for i := 0; i < standing; i++ {
			schedule(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			schedule(i)
			eng.Step()
		}
	})
	s.res.set("sim.schedule_fire_ns", ns)
	s.res.set("sim.schedule_fire_allocs", allocs)

	s.ns("sim.cancel_ns", func(b *testing.B) {
		eng := sim.New()
		noop := func(any) {}
		for i := 0; i < standing; i++ {
			eng.AtArg(deltas[i%len(deltas)], noop, nil)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := eng.AtArg(deltas[i%len(deltas)], noop, nil)
			t.Cancel()
			eng.Release(t)
		}
	})
}

func (s *suite) probeCluster() {
	newCluster := func(b *testing.B) *cluster.Cluster {
		cl, err := cluster.New(1000, 4)
		if err != nil {
			b.Fatal(err)
		}
		return cl
	}
	res := cluster.Reservation{Job: 7, Priority: fgPriority}
	s.ns("cluster.acquire_release_ns", func(b *testing.B) {
		cl := newCluster(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id, ok := cl.AcquireFree(1)
			if !ok || cl.Release(id) != nil {
				b.Fatal("acquire/release failed")
			}
		}
	})
	s.ns("cluster.reserve_cancel_ns", func(b *testing.B) {
		cl := newCluster(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id, ok := cl.AcquireFree(1)
			if !ok || cl.Reserve(id, res) != nil || cl.CancelReservation(id) != nil {
				b.Fatal("reserve/cancel failed")
			}
		}
	})
	s.ns("cluster.acquire_reserved_ns", func(b *testing.B) {
		cl := newCluster(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := cl.ReserveAnyFree(res, 1); !ok {
				b.Fatal("reserve failed")
			}
			id, ok := cl.AcquireReservedFor(res.Job, 1)
			if !ok || cl.Release(id) != nil {
				b.Fatal("acquire reserved failed")
			}
		}
	})
	s.ns("cluster.reserved_jobs_ns", func(b *testing.B) {
		cl := newCluster(b)
		for j := 1; j <= 100; j++ {
			if _, ok := cl.ReserveAnyFree(cluster.Reservation{Job: dag.JobID(j), Priority: fgPriority}, 1); !ok {
				b.Fatal("reserve failed")
			}
		}
		var buf []dag.JobID
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = cl.AppendReservedJobs(buf[:0])
		}
		if len(buf) != 100 {
			b.Fatalf("%d reserving jobs, want 100", len(buf))
		}
	})
}

// queueItem is a schedulable phase as the queues see it, with the optional
// remaining-work and demand views the DAG and packing disciplines read.
type queueItem struct {
	job       dag.JobID
	prio      dag.Priority
	ready     time.Duration
	running   int
	remaining time.Duration
	demand    int
}

func (q *queueItem) JobID() dag.JobID             { return q.job }
func (q *queueItem) PhaseID() int                 { return 0 }
func (q *queueItem) Priority() dag.Priority       { return q.prio }
func (q *queueItem) ReadyTime() time.Duration     { return q.ready }
func (q *queueItem) JobRunning() int              { return q.running }
func (q *queueItem) RemainingWork() time.Duration { return q.remaining }
func (q *queueItem) TaskDemand() int              { return q.demand }

func queueItems(seed int64, n int) []sched.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]sched.Item, n)
	for i := range items {
		prio := bgPriority
		if i%5 == 0 {
			prio = fgPriority
		}
		items[i] = &queueItem{
			job: dag.JobID(i + 1), prio: prio, ready: time.Duration(i) * time.Millisecond,
			running: rng.Intn(8), remaining: time.Duration(rng.Int63n(int64(time.Hour))), demand: 1 + rng.Intn(4),
		}
	}
	return items
}

// Probe results land here so the compiler cannot drop the measured call.
var (
	sinkItem     sched.Item
	sinkDuration time.Duration
	sinkInt      int
)

func (s *suite) probeSched() {
	queues := []struct {
		name string
		mk   func() sched.Queue
	}{
		{"priority", func() sched.Queue { return sched.NewPriorityQueue() }},
		{"dag", func() sched.Queue { return sched.NewDAGQueue() }},
		{"packing", func() sched.Queue { return sched.NewPackingQueue() }},
	}
	for _, depth := range []struct {
		n   int
		tag string
	}{{1000, "n1k"}, {100000, "n100k"}} {
		items := queueItems(s.cfg.Seed, depth.n)
		for _, q := range queues {
			name := fmt.Sprintf("sched.%s_best_ns_%s", q.name, depth.tag)
			s.ns(name, func(b *testing.B) {
				queue := q.mk()
				for _, it := range items {
					queue.Add(it)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkItem = queue.Best()
				}
			})
		}
	}
	items := queueItems(s.cfg.Seed, 1000)
	for _, it := range items {
		it.(*queueItem).prio = bgPriority
	}
	s.ns("sched.priority_add_remove_ns", func(b *testing.B) {
		queue := sched.NewPriorityQueue()
		for _, it := range items {
			queue.Add(it)
		}
		b.ResetTimer()
		// Rotate the head to the tail: the depth stays at 1k and the
		// tombstone the Remove leaves is skimmed by the next Best.
		for i := 0; i < b.N; i++ {
			it := queue.Best()
			queue.Remove(it)
			queue.Add(it)
		}
	})
}

func (s *suite) probeCore() {
	cfg := onlineDriverOptions().SSR
	s.ns("core.handle_completion_ns", func(b *testing.B) {
		const m = 64
		var tr *core.PhaseTracker
		for i := 0; i < b.N; i++ {
			if i%m == 0 {
				var err error
				if tr, err = core.NewPhaseTracker(cfg, m, m/2, false); err != nil {
					b.Fatal(err)
				}
			}
			tr.HandleCompletion()
		}
	})
	s.ns("core.deadline_ns", func(b *testing.B) {
		tr, err := core.NewPhaseTracker(cfg, 64, 32, false)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			d, ok := tr.DeadlineWith(8*time.Second, 0.9, 1.6)
			if !ok {
				b.Fatal("no deadline")
			}
			sinkDuration = d
		}
	})
}

func (s *suite) probeWorkload() {
	bg := workload.BackgroundConfig{Jobs: 1000, Window: 10 * time.Minute, MeanTask: 50 * time.Second,
		Alpha: 1.6, DurationScale: 1, MaxParallelism: 60}
	tasks := 0
	ns, _ := s.bench("workload.background_ns_per_task", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			jobs, err := workload.Background(bg, 1, bgPriority, stats.Stream(s.cfg.Seed, "probe-bg"))
			if err != nil {
				b.Fatal(err)
			}
			if tasks == 0 {
				for _, j := range jobs {
					tasks += j.TotalTasks()
				}
			}
		}
	})
	if tasks > 0 {
		s.res.set("workload.background_ns_per_task", ns/float64(tasks))
	}

	mix, err := buildOnlineMix(s.cfg.Seed)
	if err != nil {
		s.fail(err)
		return
	}
	fg := 0
	for len(mix.specs[fg].Phases) != 3 {
		fg++
	}
	ns, _ = s.bench("dag.new_job_ns_per_task", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mix.job(fg, dag.JobID(i+1), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	s.res.set("dag.new_job_ns_per_task", ns/12)

	const batch = 1000
	jobs := make([]*dag.Job, batch)
	for i := range jobs {
		if jobs[i], err = mix.job(i, dag.JobID(i+1), time.Duration(i)*time.Second); err != nil {
			s.fail(err)
			return
		}
	}
	s.ns("driver.submit_ns", func(b *testing.B) {
		var d *driver.Driver
		for i := 0; i < b.N; i++ {
			if i%batch == 0 {
				b.StopTimer()
				cl, err := cluster.New(64, 4)
				if err != nil {
					b.Fatal(err)
				}
				if d, err = driver.New(sim.New(), cl, onlineDriverOptions()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if err := d.Submit(jobs[i%batch]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// probeObs needs a registry a scheduler has written to; reg is the one the
// tax ladder's all-sink cell left behind.
func (s *suite) probeObs(reg *obs.Registry) {
	ev := obs.AuditEvent{Kind: obs.KindReserve, Job: 7, JobName: "fg-7", Tenant: "default", Phase: 1, Slot: 12}
	ns, allocs := s.bench("obs.audit_append_ns", func(b *testing.B) {
		a := obs.NewAudit(0)
		for i := 0; i < obs.DefaultAuditCapacity; i++ {
			a.Append(ev)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Append(ev)
		}
	})
	s.res.set("obs.audit_append_ns", ns)
	s.res.set("obs.audit_append_allocs", allocs)

	own := obs.NewRegistry()
	counter := own.Counter("probe_total", "probe counter")
	s.ns("obs.counter_inc_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			counter.Inc()
		}
	})
	hist := own.Histogram("probe_seconds", "probe histogram", obs.LatencyBuckets)
	s.ns("obs.histogram_observe_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist.Observe(float64(i%600) + 0.5)
		}
	})
	s.ns("obs.prometheus_write_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := reg.WritePrometheus(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	tev := trace.Event{Job: 7, JobName: "fg-7", Phase: 1, Task: 3, Slot: 12, Start: time.Second, End: 9 * time.Second}
	s.ns("trace.append_ns", func(b *testing.B) {
		var rec *trace.Recorder
		for i := 0; i < b.N; i++ {
			if i%100000 == 0 {
				rec = trace.NewRecorder() // bounds memory; slice growth stays amortised in
			}
			rec.Append(tev)
		}
	})
}

func (s *suite) probeEstimate() {
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	dist, err := stats.ParetoWithMean(1.6, 8)
	if err != nil {
		s.fail(err)
		return
	}
	durs := make([]time.Duration, 4096)
	for i := range durs {
		durs[i] = time.Duration(dist.Sample(rng) * float64(time.Second))
	}
	reg := estimate.New(estimate.Config{})
	s.ns("estimate.observe_task_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg.ObserveTask("default", "bg", durs[i%len(durs)])
		}
	})
	s.ns("estimate.knobs_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg.Knobs("default", "bg", 0.9)
		}
	})
}

func (s *suite) probeTenantShard() {
	for _, c := range []struct {
		name    string
		tenants int
	}{{"tenant.admit_complete_ns", 1}, {"tenant.admit_complete_ns_t8", 8}} {
		names := make([]string, c.tenants)
		for i := range names {
			names[i] = fmt.Sprintf("tenant%d", i)
		}
		s.ns(c.name, func(b *testing.B) {
			reg := tenant.NewRegistry()
			reg.SetCapacity(4000, 0)
			for _, n := range names {
				// A standing job keeps every tenant active.
				if err := reg.Admit(n, 4, 4); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := names[i%len(names)]
				if err := reg.Admit(n, 4, 4); err != nil {
					b.Fatal(err)
				}
				reg.Complete(n, 4, 4)
			}
		})
	}

	loads := make([]shard.Load, 16)
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	for i := range loads {
		loads[i] = shard.Load{Slots: 256, Busy: rng.Intn(200), Reserved: rng.Intn(20), Pending: rng.Intn(50), Assigned: 1000 + i}
	}
	info := shard.JobInfo{ID: 1, Name: "fg-1", Priority: fgPriority, MaxParallelism: 6, TotalTasks: 12, MaxDemand: 1}
	s.ns("shard.router_pick_ns_k16", func(b *testing.B) {
		r := shard.LeastLoadedRouter{}
		for i := 0; i < b.N; i++ {
			sinkInt = r.Pick(info, loads)
		}
	})

	s.ns("shard.broker_loan_ns", func(b *testing.B) {
		peers := make([]shard.Peer, 2)
		engs := make([]*sim.Engine, 2)
		for i := range peers {
			eng := sim.New()
			cl, err := cluster.New(64, 4)
			if err != nil {
				b.Fatal(err)
			}
			d, err := driver.New(eng, cl, onlineDriverOptions())
			if err != nil {
				b.Fatal(err)
			}
			engs[i] = eng
			peers[i] = shard.Peer{
				Cluster: cl, Driver: d,
				Call: func(fn func()) error { fn(); return nil },
				At:   func(t sim.Time, fn func()) { eng.At(t, fn) },
				Now:  eng.Now,
			}
		}
		lender := shard.NewBroker(peers, shard.LendingConfig{}).Lender(0)
		req := driver.LoanRequest{Job: 1, JobName: "fg-1", Phase: 1, Priority: fgPriority, Want: 1, MinSize: 1, Tenant: "default"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if granted, _ := lender.Borrow(req); granted != 1 {
				b.Fatalf("granted %d loans, want 1", granted)
			}
			id, ok := lender.Consume(req.Job, 1)
			if !ok {
				b.Fatal("no loan to consume")
			}
			lender.Finish(id)
			// The slot goes home through events on the owner's engine: the
			// release, then the dispatch pass it pokes.
			for engs[1].Step() {
			}
		}
	})
}

func (s *suite) probeRealtime() {
	noop := func() {}
	s.ns("realtime.call_idle_ns", func(b *testing.B) {
		rt, err := realtime.New(sim.New(), realtime.Options{Dilation: 1e6})
		if err != nil {
			b.Fatal(err)
		}
		rt.Start()
		defer rt.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rt.Call(noop); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The busy engine carries a self-rescheduling event whose period, at
	// dilation 1000, is twice what one such event costs this machine: the
	// loop spends half its time firing due events, whatever the machine, so
	// every Call finds a backlog to wait out and the loop still keeps up.
	const chainDilation = 1000
	chain := func(eng *sim.Engine, period time.Duration) {
		var (
			tick func(any)
			cur  *sim.Timer
		)
		tick = func(any) {
			eng.Release(cur) // the timer firing now; the next AfterArg reuses it
			cur = eng.AfterArg(period, tick, nil)
		}
		cur = eng.AfterArg(0, tick, nil)
	}
	const costEvents = 200000
	costEng := sim.New()
	chain(costEng, time.Nanosecond)
	t0 := time.Now()
	for i := 0; i < costEvents; i++ {
		costEng.Step()
	}
	period := 2 * time.Since(t0) / costEvents * chainDilation
	s.ns("realtime.call_busy_ns", func(b *testing.B) {
		eng := sim.New()
		chain(eng, period)
		rt, err := realtime.New(eng, realtime.Options{Dilation: chainDilation})
		if err != nil {
			b.Fatal(err)
		}
		rt.Start()
		defer rt.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rt.Call(noop); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Fire lag: events spread evenly over the probe window at dilation
	// 1000, each stamping the wall clock when it fires; lateness is against
	// where the Start anchor says it was due.
	if s.err != nil {
		return
	}
	const dilation = 1000
	events := int(10000 * s.cfg.Seconds / runSeconds)
	if events < 100 {
		events = 100
	}
	gap := 100 * time.Microsecond * dilation // 100 wall microseconds apart
	eng := sim.New()
	fired := make([]time.Time, events)
	last := make(chan struct{})
	for i := range fired {
		eng.AtArg(time.Duration(i+1)*gap, func(a any) {
			i := a.(int)
			fired[i] = time.Now()
			if i == events-1 {
				close(last)
			}
		}, i)
	}
	rt, err := realtime.New(eng, realtime.Options{Dilation: dilation})
	if err != nil {
		s.fail(err)
		return
	}
	anchor := time.Now()
	rt.Start()
	select {
	case <-last: // events fire in timestamp order: the last one ends the probe
	case <-time.After(time.Minute):
		rt.Stop()
		s.fail(errors.New("realtime fire-lag probe: the last event never fired"))
		return
	}
	rt.Stop()
	lag := make([]float64, 0, events)
	for i, at := range fired {
		due := anchor.Add(time.Duration(i+1) * gap / dilation)
		lag = append(lag, float64(at.Sub(due))/1e3)
	}
	sort.Float64s(lag)
	s.res.setN("realtime.fire_lag_p50_us", quantile(lag, 0.5), events)
	s.res.setN("realtime.fire_lag_p99_us", quantile(lag, 0.99), events)
}

func (s *suite) probeBus() {
	ev := busEvent(driver.Event{Type: driver.EventAttemptStart, Time: 42 * time.Second, Job: 7, JobName: "fg-7", Phase: 1, Task: 3, Slot: 12})
	for _, c := range []struct {
		name string
		subs int
	}{{"service.bus_publish_ns_s0", 0}, {"service.bus_publish_ns_s1", 1}, {"service.bus_publish_ns_s64", 64}} {
		s.ns(c.name, func(b *testing.B) {
			bus := service.NewBus(1 << 16)
			done := make(chan struct{}, c.subs)
			for i := 0; i < c.subs; i++ {
				_, sub := bus.Subscribe(0, 1<<16)
				go func() {
					for range sub.C {
					}
					done <- struct{}{}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bus.Publish(ev)
			}
			b.StopTimer()
			if bus.Dropped() != 0 {
				b.Fatalf("%d subscribers dropped for lagging", bus.Dropped())
			}
			bus.Close()
			for i := 0; i < c.subs; i++ {
				<-done
			}
		})
	}
}

// drainService ends admission and waits for every outstanding job.
func drainService(svc *service.Service) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	t0 := time.Now()
	aborted, err := svc.Drain(ctx)
	if err == nil && aborted > 0 {
		err = fmt.Errorf("Drain aborted %d jobs", aborted)
	}
	return time.Since(t0), err
}
