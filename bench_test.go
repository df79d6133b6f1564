// Package ssr's root benchmark harness: one sub-benchmark per registered
// experiment, each running at Quick scale and reporting the experiment's
// headline quantities as custom metrics, a parallel-harness benchmark, and
// ablation benchmarks for the design choices called out in DESIGN.md.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// For paper-scale dimensions run the experiment binary instead:
//
//	go run ./cmd/ssrexp -scale full
package ssr

import (
	"fmt"
	"testing"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/experiments"
	"ssr/internal/runner"
	"ssr/internal/sim"
	"ssr/internal/stats"
	"ssr/internal/workload"
)

// BenchmarkExperiments runs every registered experiment serially at Quick
// scale, one sub-benchmark each, and reports the experiment's headline
// metrics (e.g. BenchmarkExperiments/fig1 reports kmeans-slowdown).
func BenchmarkExperiments(b *testing.B) {
	p := experiments.QuickParams()
	for _, e := range experiments.All() {
		e := e
		b.Run(e.Name(), func(b *testing.B) {
			var res *experiments.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.RunSerial(e, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, name := range res.MetricNames() {
				b.ReportMetric(res.Metrics[name], name)
			}
		})
	}
}

// BenchmarkRunnerParallel measures the experiment harness at several worker
// counts on cell-rich experiments (fig12: 24 cells, fig14: 45 cells at
// Quick scale). The workers=1 case is the serial baseline.
func BenchmarkRunnerParallel(b *testing.B) {
	p := experiments.QuickParams()
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, name := range []string{"fig12", "fig14"} {
					e, ok := experiments.Lookup(name)
					if !ok {
						b.Fatalf("%s not registered", name)
					}
					if _, err := runner.Run(e, p, runner.Options{Parallel: workers}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Ablations -----------------------------------------------------------

// ablationRun executes a canonical contention scenario (one KMeans-like
// foreground job vs a batch backlog on 50 slots) under the given options
// and returns the foreground slowdown and the reserved-idle slot-time.
func ablationRun(b *testing.B, opts driver.Options, reshape float64, fgSpec workload.MLSpec) (float64, time.Duration) {
	b.Helper()
	const (
		nodes   = 25
		perNode = 2
		seed    = 99
	)
	eng := sim.New()
	cl, err := cluster.New(nodes, perNode)
	if err != nil {
		b.Fatal(err)
	}
	d, err := driver.New(eng, cl, opts)
	if err != nil {
		b.Fatal(err)
	}
	fg, err := fgSpec.Build(1, 10, 45*time.Second, stats.Stream(seed, "fg"))
	if err != nil {
		b.Fatal(err)
	}
	if reshape > 1 {
		fg, err = workload.ParetoReshape(fg, reshape, stats.Stream(seed, "reshape"))
		if err != nil {
			b.Fatal(err)
		}
	}
	bgCfg := workload.BackgroundConfig{
		Jobs:           60,
		Window:         3 * time.Minute,
		MeanTask:       40 * time.Second,
		Alpha:          1.6,
		DurationScale:  1,
		MaxParallelism: 30,
	}
	bg, err := workload.Background(bgCfg, 100, 1, stats.Stream(seed, "bg"))
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Submit(fg); err != nil {
		b.Fatal(err)
	}
	for _, j := range bg {
		if err := d.Submit(j); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Run(); err != nil {
		b.Fatal(err)
	}
	st, _ := d.Result(fg.ID)
	alone, err := driver.AloneJCT(fg, nodes, perNode, opts)
	if err != nil {
		b.Fatal(err)
	}
	return float64(st.JCT()) / float64(alone), d.Usage().ReservedIdleTime()
}

func ssrAblationOpts() driver.Options {
	return driver.Options{Mode: driver.ModeSSR, SSR: core.DefaultConfig()}
}

// BenchmarkAblationReservationModes compares the four reservation policies
// on the same scenario: none, timeout-based, static, and SSR (the paper's
// Sec. III-A baselines vs the contribution).
func BenchmarkAblationReservationModes(b *testing.B) {
	modes := []struct {
		name string
		opts driver.Options
	}{
		{name: "none", opts: driver.Options{Mode: driver.ModeNone}},
		{name: "timeout", opts: driver.Options{Mode: driver.ModeTimeout, Timeout: 10 * time.Second}},
		{name: "static", opts: driver.Options{
			Mode: driver.ModeStatic, StaticSlots: 20, StaticMinPriority: 10,
		}},
		{name: "ssr", opts: ssrAblationOpts()},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			var slow float64
			for i := 0; i < b.N; i++ {
				slow, _ = ablationRun(b, m.opts, 0, workload.KMeans)
			}
			b.ReportMetric(slow, "fg-slowdown")
		})
	}
}

// BenchmarkAblationDeadline quantifies the deadline knob on heavy-tailed
// tasks: utilization loss at P=1 vs P=0.5.
func BenchmarkAblationDeadline(b *testing.B) {
	for _, p := range []float64{1.0, 0.5} {
		p := p
		name := "P1.0"
		if p < 1 {
			name = "P0.5"
		}
		b.Run(name, func(b *testing.B) {
			var idle time.Duration
			var slow float64
			for i := 0; i < b.N; i++ {
				opts := ssrAblationOpts()
				opts.SSR.IsolationP = p
				slow, idle = ablationRun(b, opts, 1.6, workload.KMeans)
			}
			b.ReportMetric(idle.Seconds(), "reserved-idle-slot-s")
			b.ReportMetric(slow, "fg-slowdown")
		})
	}
}

// BenchmarkAblationMitigation measures straggler mitigation on vs off for
// a heavy-tailed foreground job.
func BenchmarkAblationMitigation(b *testing.B) {
	for _, mit := range []bool{false, true} {
		mit := mit
		name := "off"
		if mit {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var slow float64
			for i := 0; i < b.N; i++ {
				opts := ssrAblationOpts()
				opts.SSR.MitigateStragglers = mit
				slow, _ = ablationRun(b, opts, 1.6, workload.KMeans)
			}
			b.ReportMetric(slow, "fg-slowdown")
		})
	}
}

// BenchmarkAblationParallelismAwareness compares Algorithm 1's Case-2
// handling (known downstream parallelism, early release of m-n slots)
// against the Case-1 reserve-all fallback, on a shrinking-parallelism job.
func BenchmarkAblationParallelismAwareness(b *testing.B) {
	shrink := func(known bool) *dag.Job {
		rng := stats.Stream(5, "shrink")
		dist, err := stats.LogNormalWithMean(0.4, 4)
		if err != nil {
			b.Fatal(err)
		}
		phase := func(tasks int) dag.PhaseSpec {
			ds := make([]time.Duration, tasks)
			for i := range ds {
				ds[i] = time.Duration(dist.Sample(rng) * float64(time.Second))
			}
			return dag.PhaseSpec{Durations: ds}
		}
		opts := []dag.Option{dag.WithSubmit(45 * time.Second)}
		if known {
			opts = append(opts, dag.WithKnownParallelism())
		}
		j, err := dag.Chain(1, "shrinking", 10, []dag.PhaseSpec{
			phase(20), phase(20), phase(5), phase(5), phase(5),
		}, opts...)
		if err != nil {
			b.Fatal(err)
		}
		return j
	}
	for _, known := range []bool{false, true} {
		known := known
		name := "reserve-all"
		if known {
			name = "parallelism-aware"
		}
		b.Run(name, func(b *testing.B) {
			var idle time.Duration
			for i := 0; i < b.N; i++ {
				eng := sim.New()
				cl, err := cluster.New(25, 2)
				if err != nil {
					b.Fatal(err)
				}
				d, err := driver.New(eng, cl, ssrAblationOpts())
				if err != nil {
					b.Fatal(err)
				}
				if err := d.Submit(shrink(known)); err != nil {
					b.Fatal(err)
				}
				bg, err := workload.Background(workload.BackgroundConfig{
					Jobs: 40, Window: 3 * time.Minute, MeanTask: 40 * time.Second,
					Alpha: 1.6, DurationScale: 1, MaxParallelism: 30,
				}, 100, 1, stats.Stream(5, "bg"))
				if err != nil {
					b.Fatal(err)
				}
				for _, j := range bg {
					if err := d.Submit(j); err != nil {
						b.Fatal(err)
					}
				}
				if err := d.Run(); err != nil {
					b.Fatal(err)
				}
				idle = d.Usage().ReservedIdleTime()
			}
			b.ReportMetric(idle.Seconds(), "reserved-idle-slot-s")
		})
	}
}

// BenchmarkAblationPreReservation compares SQL-style growing-parallelism
// jobs with pre-reservation effectively on (R=0.1) vs off (R=1).
func BenchmarkAblationPreReservation(b *testing.B) {
	for _, r := range []float64{0.1, 1.0} {
		r := r
		name := "R0.1"
		if r == 1.0 {
			name = "R1.0"
		}
		b.Run(name, func(b *testing.B) {
			e, ok := experiments.Lookup("fig16")
			if !ok {
				b.Fatal("fig16 not registered")
			}
			var slow float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunSerial(e, experiments.QuickParams())
				if err != nil {
					b.Fatal(err)
				}
				for row := range res.Rows {
					if res.Float(row, "R") == r {
						slow = res.Float(row, "avg slowdown")
					}
				}
			}
			b.ReportMetric(slow, "sql-slowdown")
		})
	}
}
