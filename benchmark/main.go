// Command benchmark is the repository's benchmark: five workloads from the
// simulator core to the ssrd daemon, the end-to-end metrics a user of either
// sees, a traced run with per-layer probes, a sink tax ladder and a per-job
// cost ladder, and an A/A mode that checks the instrument against itself.
// README.md in this directory says how to run each mode and what every
// metric means; spec.go declares them.
//
//	go run ./benchmark                         all five workloads, one child process each
//	go run ./benchmark -layers                 the traced run: layer probes, ladders, spans
//	go run ./benchmark -aa 3                   A/A: the full set 3 times twice over
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                           one workload in this process; the last line of
//	                                           standard output is the BENCHMARK.json contract's
//	                                           result object
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 10

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: all, one child process each)")
		seed     = flag.Int64("seed", 606, "seeds every generated input")
		seconds  = flag.Float64("seconds", runSeconds, "length of one run's measuring phase")
		trace    = flag.Int("trace", 0, "1: the traced run (spans on, layer metrics out) instead of the end-to-end one")
		layers   = flag.Bool("layers", false, "traced run of every workload plus the layer suite")
		aa       = flag.Int("aa", 0, "A/A mode: run the full set K times twice over (ABAB...) and compare the two sides; 3 is the usual K")
		scale    = flag.Float64("scale", 1, "input scale; below 0.5 the offline cell drops to the quick environment (smoke tests use 0.01)")
		suite    = flag.Bool("suite", true, "with -trace 1: also run the workload-independent layer suite")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as declared in spec.go and exit")
		record   = flag.String("record", "", "also write every measured value, the environment stamp and the A/A spreads to this JSON file")
		ssrd     = flag.String("ssrd", "", "use this ssrd binary instead of building ./cmd/ssrd")
		buildS   = flag.Float64("build-s", 0, "with -ssrd: how long the build took (set by the parent process)")
		resultTo = flag.String("result", "", "write the full result of a -workload run to this JSON file (set by the parent process)")
	)
	flag.Parse()
	if *manifest {
		out, err := manifestJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		return
	}
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	cfg := &runConfig{
		Seed: *seed, Seconds: *seconds, Scale: *scale,
		Trace: *trace == 1, Suite: *suite,
		Procs: runtime.NumCPU(), Root: root,
		OutDir: filepath.Join(root, "benchmark", "out"),
		SSRD:   *ssrd, BuildS: *buildS, Log: os.Stdout,
	}
	if *workload != "" {
		os.Exit(runOne(cfg, *workload, *resultTo))
	}
	printStamp(os.Stdout, newStamp(cfg))
	if err := ensureSSRD(cfg); err != nil {
		fatal(err)
	}
	switch {
	case *aa > 0:
		os.Exit(runAA(cfg, *aa, *record))
	case *layers:
		os.Exit(runLayers(cfg, *record))
	default:
		os.Exit(runAll(cfg, *record))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// moduleRoot finds the repository: the nearest directory at or above the
// working directory whose go.mod declares module ssr. The benchmark builds
// and measures the checkout it is run from.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module ssr\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module ssr at or above the working directory")
		}
		dir = parent
	}
}

// ensureSSRD builds the daemon once from ./cmd/ssrd unless the caller handed
// one in. The time goes to bench.build_s, never to setup_s.
func ensureSSRD(cfg *runConfig) error {
	if cfg.SSRD != "" {
		return nil
	}
	bin := filepath.Join(cfg.OutDir, "bin", "ssrd")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ssrd")
	cmd.Dir = cfg.Root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/ssrd: %v\n%s", err, out)
	}
	cfg.SSRD = bin
	cfg.BuildS = time.Since(t0).Seconds()
	return nil
}

// runOne runs one workload in this process and prints the contract's result
// object as the last line of standard output.
func runOne(cfg *runConfig, name, resultTo string) int {
	w := workloadByName(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	if la := loadAvg1(); la > 0.5 {
		cfg.logf("warning: 1-minute load average is %.2f; timings will be noisy", la)
	}
	if name == wlHTTPSubmit || name == wlHTTPMixed || (cfg.Trace && cfg.Suite) {
		if err := ensureSSRD(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	cfg.logf("workload %s seed=%d seconds=%g scale=%g trace=%v procs=%d", name, cfg.Seed, cfg.Seconds, cfg.Scale, cfg.Trace, cfg.Procs)
	res, err := w.Run(cfg)
	if err == nil && cfg.Trace && cfg.Suite {
		err = runSuite(cfg, res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 2
	}
	res.set("bench.build_s", cfg.BuildS)
	defs := contractEndToEnd()
	if cfg.Trace {
		for _, name := range runLayerMetrics {
			res.set("run."+name, res.Metrics[name])
		}
		defs = perLayer
		res.printMetrics(cfg.Log, perLayer)
	} else {
		res.printMetrics(cfg.Log, endToEnd)
	}
	cfg.logf("  ops_attempted=%d ops_failed=%d", res.Attempted, res.Failed)
	res.printChecks(cfg.Log)
	if resultTo != "" {
		data, err := json.Marshal(res)
		if err == nil {
			err = os.WriteFile(resultTo, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	code := 0
	if !res.correct() || res.Failed > 0 {
		for _, c := range res.failedChecks() {
			fmt.Fprintf(os.Stderr, "benchmark: %s: check %s failed: %s\n", name, c.Name, c.Detail)
		}
		code = 1
	}
	if cfg.Trace && !cfg.Suite {
		return code // a -layers child: the parent merges the suite in
	}
	line, err := res.contractLine(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("%s\n", line)
	return code
}

// runChild runs one workload in a fresh child process of this binary, so
// heap state and VmHWM do not leak between workloads, and returns its full
// result.
func runChild(cfg *runConfig, name string, trace, suite bool, out io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(cfg.OutDir, "result-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(self,
		"-workload", name,
		"-seed", fmt.Sprint(cfg.Seed),
		"-seconds", fmt.Sprint(cfg.Seconds),
		"-scale", fmt.Sprint(cfg.Scale),
		"-trace", tr,
		"-suite="+fmt.Sprint(suite),
		"-ssrd", cfg.SSRD,
		"-build-s", fmt.Sprint(cfg.BuildS),
		"-result", tmp.Name())
	cmd.Dir = cfg.Root
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(tmp.Name())
	if err != nil || len(data) == 0 {
		if runErr != nil {
			return nil, fmt.Errorf("%s: child: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: child wrote no result", name)
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: child result: %w", name, err)
	}
	return &res, nil
}

// runSet runs every workload once, each in its own child, and adds the
// cross-workload passivity check: the cells sim-observed shares with
// sim-batch must have produced the same fingerprints and simulated
// statistics.
func runSet(cfg *runConfig, trace bool, out io.Writer) (map[string]*result, error) {
	set := map[string]*result{}
	for i, w := range workloads {
		res, err := runChild(cfg, w.Name, trace, trace && i == 0, out)
		if err != nil {
			return nil, err
		}
		set[w.Name] = res
	}
	crossCheck(set[wlSimBatch], set[wlSimObserved])
	return set, nil
}

const crossCheckName = "observed-equals-batch"

func crossCheck(batch, observed *result) {
	n := len(batch.Fingerprints)
	if len(observed.Fingerprints) < n {
		n = len(observed.Fingerprints)
	}
	ok := n > 0
	detail := "no shared replications"
	for i := 0; i < n && ok; i++ {
		if batch.Fingerprints[i] != observed.Fingerprints[i] {
			ok = false
			detail = fmt.Sprintf("cell %d: sim-batch %q, sim-observed %q", i, batch.Fingerprints[i], observed.Fingerprints[i])
		}
	}
	for _, m := range []string{"fg_slowdown_mean", "reserved_idle_frac"} {
		if ok && batch.Metrics[m] != observed.Metrics[m] {
			ok = false
			detail = fmt.Sprintf("%s: sim-batch %v, sim-observed %v", m, batch.Metrics[m], observed.Metrics[m])
		}
	}
	observed.check(crossCheckName, ok, "%s", detail)
}

// setExit prints every failed check of a set and returns the exit code.
func setExit(set map[string]*result) int {
	code := 0
	for _, w := range workloads {
		res := set[w.Name]
		if res.Failed > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed\n", w.Name, res.Failed, res.Attempted)
			code = 1
		}
		for _, c := range res.failedChecks() {
			fmt.Fprintf(os.Stderr, "benchmark: %s: check %s failed: %s\n", w.Name, c.Name, c.Detail)
			code = 1
		}
	}
	return code
}

func runAll(cfg *runConfig, record string) int {
	set, err := runSet(cfg, false, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println("\nend-to-end metrics")
	for _, w := range workloads {
		fmt.Printf("%s\n", w.Name)
		set[w.Name].printMetrics(os.Stdout, endToEnd)
		fmt.Printf("  ops_attempted=%d ops_failed=%d\n", set[w.Name].Attempted, set[w.Name].Failed)
	}
	fmt.Println("cross-workload check")
	for _, c := range set[wlSimObserved].Checks {
		if c.Name == crossCheckName {
			c.print(os.Stdout)
		}
	}
	if r := set[wlSimBatch].Metrics["events_per_s"] / set[wlSimObserved].Metrics["events_per_s"]; r > 0 {
		fmt.Printf("\nobservability tax: sim-batch runs %.2fx the events per second of sim-observed\n", r)
	}
	if record != "" {
		if err := writeRecord(record, cfg, "end_to_end", func(b *baseline) { b.setEndToEnd(set) }); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return setExit(set)
}

func runLayers(cfg *runConfig, record string) int {
	set, err := runSet(cfg, true, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println("\nper-layer metrics")
	first := set[workloads[0].Name]
	first.printMetrics(os.Stdout, perLayer)
	fmt.Println("\ntrace overhead (1 - jobs_per_s traced / untraced)")
	for _, w := range workloads {
		fmt.Printf("  %-14s bench.trace_overhead_frac %+.4f\n", w.Name, set[w.Name].Metrics["bench.trace_overhead_frac"])
	}
	printBudget(os.Stdout, first.Metrics)
	if record != "" {
		if err := writeRecord(record, cfg, "layers", func(b *baseline) { b.setLayers(set) }); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return setExit(set)
}
