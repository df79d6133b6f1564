package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// The smoke tests run every workload and the traced run at about a hundredth
// of full scale. They check the plumbing — every declared metric is emitted,
// every correctness check passes and fails when it should — never a timing.

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestManifestMatchesSpec(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from spec.go; regenerate it with: go run ./benchmark -manifest > BENCHMARK.json")
	}
	if len(want) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
	e2e := contractEndToEnd()
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(e2e); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		if !d.Gate {
			continue
		}
		if d.On != nil {
			t.Errorf("%s: a gate metric is reported by every workload", d.Name)
		}
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s with unit s, better lower")
	}
	for _, d := range perLayer {
		name(d.Name)
		if d.Layer == "" || d.Moves == "" {
			t.Errorf("%s: a layer metric names its layer and what it is predicted to move", d.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
}

// logWriter sends a run's report to the test log.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(string(bytes.TrimRight(p, "\n")))
	return len(p), nil
}

func smokeConfig(t *testing.T, needSSRD bool) *runConfig {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &runConfig{
		Seed: 606, Seconds: 0.3, Scale: 0.01, Procs: 2,
		Root: root, OutDir: t.TempDir(), Log: logWriter{t},
	}
	if needSSRD {
		if testing.Short() {
			t.Skip("builds and starts ssrd")
		}
		cfg.SSRD = filepath.Join(t.TempDir(), "ssrd")
		cmd := exec.Command("go", "build", "-o", cfg.SSRD, "./cmd/ssrd")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/ssrd: %v\n%s", err, out)
		}
	}
	return cfg
}

// contractMetrics parses a contract line and fails unless it carries exactly
// the declared metrics, each once, each with its unit.
func contractMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	line, err := res.contractLine(defs)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("contract line: %v\n%s", err, line)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
		t.Fatalf("contract line lacks correct, attempted or failed: %s", line)
	}
	if !*got.Correct || *got.Failed != 0 || *got.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", *got.Correct, *got.Attempted, *got.Failed)
	}
	if len(got.Metrics) != len(defs) {
		t.Errorf("%d metrics in the contract line, %d declared", len(got.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := got.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("declared metric %s is not in the contract line", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s: no finite value", d.Name)
		}
	}
}

// on reports whether a workload reports an end-to-end metric.
func (m metricDef) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := smokeConfig(t, w.Name == wlHTTPSubmit || w.Name == wlHTTPMixed)
			res, err := w.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.failedChecks() {
				t.Errorf("check %s failed: %s", c.Name, c.Detail)
			}
			contractMetrics(t, res, contractEndToEnd())
			for _, d := range endToEnd {
				v, ok := res.Metrics[d.Name]
				if ok != d.on(w.Name) {
					t.Errorf("%s: reported=%v, declared for this workload=%v", d.Name, ok, d.on(w.Name))
				}
				if ok && d.Bound > 0 && !(v > 0) {
					t.Errorf("%s = %v: a bounded metric is never 0", d.Name, v)
				}
			}
		})
	}
}

func TestLayersSmoke(t *testing.T) {
	cfg := smokeConfig(t, true)
	cfg.Trace, cfg.Suite = true, true
	res, err := runSimBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := runSuite(cfg, res); err != nil {
		t.Fatal(err)
	}
	res.set("bench.build_s", 0.1)
	for _, name := range runLayerMetrics {
		res.set("run."+name, res.Metrics[name])
	}
	contractMetrics(t, res, perLayer)
	data, err := os.ReadFile(filepath.Join(cfg.OutDir, "trace-"+wlSimBatch+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("span file is not trace-event JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"replication", "workload.build", "driver.submit_all", "driver.run", "metrics.collect"} {
		if !names[want] {
			t.Errorf("span file has no %s span", want)
		}
	}
}

// TestCorruptedFingerprintFails tampers with one replication's fingerprint
// and one simulated statistic and expects the cross-workload check to name
// itself and the command to exit non-zero.
func TestCorruptedFingerprintFails(t *testing.T) {
	set := func() map[string]*result {
		out := map[string]*result{}
		for _, w := range workloads {
			r := newResult(w.Name)
			r.Attempted = 1
			out[w.Name] = r
		}
		for _, n := range []string{wlSimBatch, wlSimObserved} {
			out[n].Fingerprints = []string{"events=10 makespan=1s jobs=2 jctsum=3s", "events=12 makespan=2s jobs=2 jctsum=4s"}
			out[n].set("fg_slowdown_mean", 1.05)
			out[n].set("reserved_idle_frac", 2e-5)
		}
		return out
	}
	clean := set()
	crossCheck(clean[wlSimBatch], clean[wlSimObserved])
	if code := setExit(clean); code != 0 {
		t.Fatalf("identical fingerprints: exit code %d", code)
	}
	for name, corrupt := range map[string]func(r *result){
		"fingerprint": func(r *result) { r.Fingerprints[1] = "events=13 makespan=2s jobs=2 jctsum=4s" },
		"statistic":   func(r *result) { r.set("fg_slowdown_mean", 1.0500001) },
	} {
		bad := set()
		corrupt(bad[wlSimObserved])
		crossCheck(bad[wlSimBatch], bad[wlSimObserved])
		failed := bad[wlSimObserved].failedChecks()
		if len(failed) != 1 || failed[0].Name != crossCheckName {
			t.Errorf("corrupted %s: failed checks %+v, want %s", name, failed, crossCheckName)
		}
		if code := setExit(bad); code != 1 {
			t.Errorf("corrupted %s: exit code %d, want 1", name, code)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) is [1.0, 2.0, 4.0].
	if got, want := quartileSpread([]float64{4, 1, 2}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestWindowStatsMergesThinWindows(t *testing.T) {
	// 4 s at 600 samples per second: 1 s windows hold under 1000 samples,
	// 2 s windows hold 1200.
	var samples []sample
	for i := 0; i < 2400; i++ {
		samples = append(samples, sample{at: time.Duration(i) * time.Second / 600, dur: time.Millisecond})
	}
	wins := windowStats(samples, 0, 4*time.Second)
	if len(wins) != 2 || wins[0].n != 1200 || wins[1].n != 1200 {
		t.Fatalf("windows %+v, want two of 1200 samples", wins)
	}
	if wins[0].rate != 600 || wins[0].p99 != 1 {
		t.Errorf("window rate %v p99 %v, want 600 and 1 ms", wins[0].rate, wins[0].p99)
	}
}
