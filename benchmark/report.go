package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// manifestJSON renders BENCHMARK.json from the declarations in spec.go. The
// file has exactly the contract's keys; everything else the issue wants
// recorded (latest values, observed spreads, predictions, the environment)
// goes to the -record file.
func manifestJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range contractEndToEnd() {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// stamp says where and how a report was measured.
type stamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	LoadAvg1   float64 `json:"loadavg1"`
	Time       string  `json:"time"`
}

func newStamp(cfg *runConfig) stamp {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = cfg.Root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(), Commit: commit,
		Seed: cfg.Seed, Scale: cfg.Scale, Seconds: cfg.Seconds,
		LoadAvg1: loadAvg1(), Time: time.Now().UTC().Format(time.RFC3339),
	}
}

func printStamp(w io.Writer, s stamp) {
	fmt.Fprintf(w, "benchmark: nproc=%d GOMAXPROCS=%d cpu=%q %s commit=%s seed=%d scale=%g seconds=%g\n",
		s.NProc, s.GOMAXPROCS, s.CPU, s.Go, s.Commit, s.Seed, s.Scale, s.Seconds)
	if s.LoadAvg1 > 0.5 {
		fmt.Fprintf(w, "warning: 1-minute load average is %.2f; timings will be noisy\n", s.LoadAvg1)
	}
}

// baseline is the -record file: for this machine, the latest value of every
// metric, each end-to-end bound with its observed A/A spread, and for each
// layer metric the end-to-end metric and workload it is predicted to move.
// The three modes each fill their own section and keep the others.
type baseline struct {
	Stamps   map[string]stamp                        `json:"stamps"`
	EndToEnd map[string]map[string]recordedE2E       `json:"end_to_end"`
	PerLayer map[string]recordedLayer                `json:"per_layer"`
	Overhead map[string]float64                      `json:"trace_overhead_frac,omitempty"`
	AA       map[string]map[string]map[string]aaPair `json:"aa,omitempty"`
}

type recordedE2E struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
	// Gate says the metric is declared in BENCHMARK.json.
	Gate bool   `json:"gate"`
	Doc  string `json:"doc"`
	// Samples is the sample count behind a timing.
	Samples int `json:"samples,omitempty"`
}

type recordedLayer struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Layer string  `json:"layer"`
	Moves string  `json:"moves"`
	Doc   string  `json:"doc"`
}

func (b *baseline) setEndToEnd(set map[string]*result) {
	b.EndToEnd = map[string]map[string]recordedE2E{}
	for _, w := range workloads {
		row := map[string]recordedE2E{}
		for _, d := range endToEnd {
			if v, ok := set[w.Name].Metrics[d.Name]; ok {
				row[d.Name] = recordedE2E{Value: v, Unit: d.Unit, Bound: d.Bound, Gate: d.Gate, Doc: d.Doc, Samples: set[w.Name].Samples[d.Name]}
			}
		}
		b.EndToEnd[w.Name] = row
	}
}

func (b *baseline) setLayers(set map[string]*result) {
	b.PerLayer = map[string]recordedLayer{}
	first := set[workloads[0].Name]
	for _, d := range perLayer {
		if v, ok := first.Metrics[d.Name]; ok && d.Name != "bench.trace_overhead_frac" {
			b.PerLayer[d.Name] = recordedLayer{Value: v, Unit: d.Unit, Layer: d.Layer, Moves: d.Moves, Doc: d.Doc}
		}
	}
	b.Overhead = map[string]float64{}
	for _, w := range workloads {
		b.Overhead[w.Name] = set[w.Name].Metrics["bench.trace_overhead_frac"]
	}
}

// writeRecord merges one mode's section into the record file.
func writeRecord(path string, cfg *runConfig, mode string, fill func(*baseline)) error {
	var b baseline
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &b); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	if b.Stamps == nil {
		b.Stamps = map[string]stamp{}
	}
	b.Stamps[mode] = newStamp(cfg)
	fill(&b)
	out, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// aaPair is one end-to-end metric on one workload in A/A mode: the two sides'
// medians, how far apart they are, the quartile spread over all runs, and
// the bound they are held to.
type aaPair struct {
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	Disagree float64 `json:"disagree"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

// runAA runs the full set k times twice over, alternating the sides
// (ABAB...), on the same code and seed. The instrument passes when, for
// every end-to-end metric on every workload that is not a noisy timing, the
// two sides' medians agree within the metric's bound; the exact metrics must
// repeat bit for bit in every run. The timings are printed with the rest.
func runAA(cfg *runConfig, k int, record string) int {
	values := map[string]map[string][2][]float64{} // workload → metric → side → runs
	code := 0
	for round := 0; round < k; round++ {
		for side := 0; side < 2; side++ {
			fmt.Printf("\nA/A round %d of %d, side %c\n", round+1, k, 'A'+side)
			set, err := runSet(cfg, false, io.Discard)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			if c := setExit(set); c != 0 {
				code = c
			}
			for _, w := range workloads {
				if values[w.Name] == nil {
					values[w.Name] = map[string][2][]float64{}
				}
				for _, d := range endToEnd {
					if v, ok := set[w.Name].Metrics[d.Name]; ok {
						sides := values[w.Name][d.Name]
						sides[side] = append(sides[side], v)
						values[w.Name][d.Name] = sides
					}
				}
			}
		}
	}
	fmt.Printf("\nA/A seed=%d k=%d: median A, median B, disagreement, quartile spread of all runs, bound\n", cfg.Seed, k)
	pairs := map[string]map[string]aaPair{}
	for _, w := range workloads {
		fmt.Println(w.Name)
		pairs[w.Name] = map[string]aaPair{}
		for _, d := range endToEnd {
			sides, ok := values[w.Name][d.Name]
			if !ok {
				continue
			}
			a, b := median(sides[0]), median(sides[1])
			all := append(append([]float64(nil), sides[0]...), sides[1]...)
			p := aaPair{MedianA: a, MedianB: b, Spread: quartileSpread(all), Bound: d.Bound}
			if lo := math.Min(math.Abs(a), math.Abs(b)); lo > 0 {
				p.Disagree = math.Abs(a-b) / lo
			}
			p.OK = d.Noisy || p.Disagree <= d.Bound
			if d.Bound == 0 {
				// Exact: every run of both sides must read the same.
				for _, v := range all {
					p.OK = p.OK && v == all[0]
				}
			}
			mark := "ok"
			if d.Noisy && p.Disagree > d.Bound {
				mark = "noisy: over its bound, not enforced"
			}
			if !p.OK {
				mark = "DISAGREE"
				code = 1
				fmt.Fprintf(os.Stderr, "benchmark: A/A: %s on %s disagrees: %.6g vs %.6g (%.1f %% > bound %.1f %%)\n",
					d.Name, w.Name, a, b, 100*p.Disagree, 100*d.Bound)
			}
			fmt.Printf("  %-22s %14.6g %14.6g %7.2f %% %7.2f %% %5.0f %%  %s\n", d.Name, a, b, 100*p.Disagree, 100*p.Spread, 100*d.Bound, mark)
			pairs[w.Name][d.Name] = p
		}
	}
	if record != "" {
		err := writeRecord(record, cfg, "aa", func(b *baseline) {
			if b.AA == nil {
				b.AA = map[string]map[string]map[string]aaPair{}
			}
			b.AA[fmt.Sprintf("seed-%d", cfg.Seed)] = pairs
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return code
}
