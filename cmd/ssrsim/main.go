// Command ssrsim runs a single configurable contention simulation: a
// foreground application suite against synthesized background jobs, under a
// chosen reservation policy, and prints per-job results.
//
// Example:
//
//	ssrsim -nodes 50 -slots 2 -mode ssr -p 0.9 -bg 100 -suite ml
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/estimate"
	"ssr/internal/faults"
	"ssr/internal/obs"
	"ssr/internal/runner"
	"ssr/internal/sim"
	"ssr/internal/stats"
	"ssr/internal/trace"
	"ssr/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssrsim:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args and writes every report line to
// stdout. Flag errors and usage still go to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ssrsim", flag.ContinueOnError)
	var (
		nodes     = fs.Int("nodes", 50, "cluster nodes")
		perNode   = fs.Int("slots", 2, "slots per node")
		modeName  = fs.String("mode", "none", "reservation mode: none, ssr, timeout, static")
		isolation = fs.Float64("p", 1.0, "SSR isolation guarantee P in (0, 1]")
		alpha     = fs.Float64("alpha", 1.6, "operator's Pareto tail estimate for the deadline")
		threshold = fs.Float64("r", 0.5, "SSR pre-reservation threshold R")
		mitigate  = fs.Bool("mitigate", false, "use reserved slots as straggler mitigators")
		adaptive  = fs.Bool("adaptive", false, "re-derive SSR deadlines from streaming tail estimators instead of -alpha alone")
		timeout   = fs.Duration("timeout", 10*time.Second, "reservation timeout (mode=timeout)")
		static    = fs.Int("static", 0, "statically fenced slots (mode=static)")
		suite     = fs.String("suite", "ml", "foreground suite: ml, ml2x, sql, none")
		bgJobs    = fs.Int("bg", 100, "background jobs")
		window    = fs.Duration("window", 6*time.Minute, "background arrival window")
		bgScale   = fs.Float64("bgscale", 1.0, "background task duration scale")
		locFactor = fs.Float64("locality", 5.0, "locality miss penalty factor")
		locWait   = fs.Duration("wait", 3*time.Second, "locality wait")
		mttf      = fs.Duration("mttf", 0, "per-node mean time to failure (0 disables fault injection)")
		repair    = fs.Duration("repair", 30*time.Second, "node repair time after a crash (0 = permanent)")
		parallel  = fs.Int("parallel", 0, "workers for the per-job baseline simulations (0 = GOMAXPROCS)")
		seed      = fs.Int64("seed", 42, "random seed")
		verbose   = fs.Bool("v", false, "print every job, not only the foreground")
		traceOut  = fs.String("trace", "", "write a per-attempt trace to this file (.csv or .json)")
		perfetto  = fs.String("perfetto", "", "write a Chrome/Perfetto trace-event JSON to this file (load at ui.perfetto.dev)")
		auditOut  = fs.String("audit", "", "write the reservation-decision audit stream to this file (JSONL)")
		gantt     = fs.Bool("gantt", false, "render a text Gantt chart of the run")
		jobsIn    = fs.String("jobs", "", "load foreground jobs from a workload trace CSV instead of -suite")
		dumpJobs  = fs.String("dumpjobs", "", "write the synthesized workload (foreground+background) to this CSV")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := driver.Options{
		LocalityWait:   *locWait,
		LocalityFactor: *locFactor,
	}
	if *mttf > 0 {
		// Survive transient crashes rather than abort: the sweep's
		// interest is the isolation under churn, not job failures.
		opts.Retry = driver.RetryPolicy{MaxAttempts: 10}
	}
	var rec *trace.Recorder
	if *traceOut != "" || *gantt || *perfetto != "" {
		rec = &trace.Recorder{}
		opts.Trace = rec
	}
	var audit *obs.Audit
	if *perfetto != "" || *auditOut != "" {
		// Retain the whole run: offline exports want every decision, not a
		// live tail.
		audit = obs.NewAudit(1 << 20)
		opts.Audit = audit
	}
	var est *estimate.Registry
	if *adaptive {
		est = estimate.New(estimate.Config{})
		opts.Adaptive = est
	}
	switch *modeName {
	case "none":
		opts.Mode = driver.ModeNone
	case "ssr":
		opts.Mode = driver.ModeSSR
		opts.SSR = core.Config{
			Enabled:             true,
			IsolationP:          *isolation,
			Alpha:               *alpha,
			PreReserveThreshold: *threshold,
			MitigateStragglers:  *mitigate,
		}
	case "timeout":
		opts.Mode = driver.ModeTimeout
		opts.Timeout = *timeout
	case "static":
		opts.Mode = driver.ModeStatic
		opts.StaticSlots = *static
		opts.StaticMinPriority = 10
	default:
		return fmt.Errorf("unknown mode %q", *modeName)
	}

	var fg []*dag.Job
	fgStart := *window / 4
	if *jobsIn != "" {
		loaded, err := loadJobs(*jobsIn)
		if err != nil {
			return err
		}
		fg = loaded
		*suite = "none"
	}
	switch *suite {
	case "ml", "ml2x":
		for i, spec := range workload.MLSuite() {
			if *suite == "ml2x" {
				spec = spec.ScaleParallelism(2)
			}
			j, err := spec.Build(dag.JobID(i+1), 10, fgStart+time.Duration(i)*20*time.Second,
				stats.SubStream(*seed, "fg", i))
			if err != nil {
				return err
			}
			fg = append(fg, j)
		}
	case "sql":
		for i, q := range workload.SQLQueries(1) {
			j, err := q.Build(dag.JobID(i+1), 10, fgStart+time.Duration(i)*10*time.Second,
				stats.SubStream(*seed, "fg", i))
			if err != nil {
				return err
			}
			fg = append(fg, j)
		}
	case "none":
	default:
		return fmt.Errorf("unknown suite %q", *suite)
	}

	bgCfg := workload.BackgroundConfig{
		Jobs:           *bgJobs,
		Window:         *window,
		MeanTask:       12 * time.Second,
		Alpha:          1.6,
		DurationScale:  *bgScale,
		MaxParallelism: 40,
	}
	bg, err := workload.Background(bgCfg, 1000, 1, stats.Stream(*seed, "bg"))
	if err != nil {
		return err
	}
	if *dumpJobs != "" {
		if err := dumpWorkload(*dumpJobs, fg, bg); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d jobs to %s\n", len(fg)+len(bg), *dumpJobs)
	}

	eng := sim.New()
	cl, err := cluster.New(*nodes, *perNode)
	if err != nil {
		return err
	}
	d, err := driver.New(eng, cl, opts)
	if err != nil {
		return err
	}
	for _, j := range fg {
		if err := d.Submit(j); err != nil {
			return err
		}
	}
	for _, j := range bg {
		if err := d.Submit(j); err != nil {
			return err
		}
	}
	if *mttf > 0 {
		faults.Poisson{MTTF: *mttf, Repair: *repair, Seed: *seed}.Install(d)
	}
	start := time.Now()
	if err := d.Run(); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "simulated %d jobs on %d slots in %v (virtual makespan %v, %d events)\n",
		len(fg)+len(bg), cl.NumSlots(), time.Since(start).Round(time.Millisecond),
		d.Makespan().Round(time.Second), eng.Events())
	fmt.Fprintf(stdout, "cluster utilization over makespan: %.1f%%, reserved-idle: %.2f%%\n",
		100*d.Usage().Utilization(d.Makespan()),
		100*d.Usage().ReservedFraction(d.Makespan()))
	if fc := d.Faults(); fc.Any() {
		fmt.Fprintln(stdout, fc)
	}
	if est != nil {
		for _, cs := range est.Snapshot() {
			fmt.Fprintf(stdout, "estimator %s/%s: n=%d alpha=%.2f tm=%.2fs ks=%.3f stable=%v effP=%.3f hold=%.3f (fits=%d rejects=%d)\n",
				orDefault(cs.Tenant), cs.Class, cs.Observed, cs.Alpha, cs.TmSec,
				cs.KS, cs.Stable, cs.EffectiveP, cs.HoldEWMA, cs.Fits, cs.Rejects)
		}
	}

	// The baselines replay each foreground job on an empty cluster — one
	// independent simulation per job, so they parallelize cleanly.
	alones, err := runner.Map(*parallel, len(fg), func(i int) (time.Duration, error) {
		return driver.AloneJCT(fg[i], *nodes, *perNode, opts)
	})
	if err != nil {
		return err
	}
	for i, j := range fg {
		st, _ := d.Result(j.ID)
		fmt.Fprintf(stdout, "fg %-12s jct=%-10v alone=%-10v slowdown=%.2f copies=%d/%d local/any=%d/%d\n",
			j.Name, st.JCT().Round(time.Millisecond), alones[i].Round(time.Millisecond),
			float64(st.JCT())/float64(alones[i]), st.CopiesWon, st.CopiesLaunched,
			st.LocalPlacements, st.AnyPlacements)
	}
	if *verbose {
		for _, j := range bg {
			st, _ := d.Result(j.ID)
			fmt.Fprintf(stdout, "bg %-12s jct=%v\n", j.Name, st.JCT().Round(time.Millisecond))
		}
	}
	if *gantt {
		fmt.Fprint(stdout, trace.Gantt(rec.Events(), trace.GanttOptions{Width: 100, Slots: 64}))
	}
	if *traceOut != "" {
		if err := rec.WriteFile(*traceOut); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d trace events to %s\n", rec.Len(), *traceOut)
	}
	if *perfetto != "" {
		if err := obs.WritePerfettoFile(*perfetto, rec.Events(), audit.Events()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote Perfetto trace to %s (open at ui.perfetto.dev)\n", *perfetto)
	}
	if *auditOut != "" {
		if err := audit.WriteFile(*auditOut); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d audit events to %s (%d dropped by retention)\n",
			audit.Len(), *auditOut, audit.Dropped())
	}
	return nil
}

// orDefault maps the empty (single-tenant) tenant name to "default" for
// display, matching the metric-label convention.
func orDefault(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// loadJobs reads a workload trace CSV.
func loadJobs(path string) ([]*dag.Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		// Read-only close; an error here cannot lose data.
		_ = f.Close()
	}()
	return workload.FromCSV(f)
}

// dumpWorkload writes the synthesized jobs to a workload trace CSV.
func dumpWorkload(path string, groups ...[]*dag.Job) error {
	var all []*dag.Job
	for _, g := range groups {
		all = append(all, g...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.WriteCSV(f, all); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
