package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// runConfig is what one workload run is given. The program under test only
// ever sees inputs generated from Seed.
type runConfig struct {
	Seed    int64
	Seconds float64 // length of the measuring phase
	Scale   float64
	Trace   bool // the traced run: spans on for alternate units, layer suite after
	Suite   bool // with Trace: also run the workload-independent layer suite
	Procs   int  // submitter goroutines / keep-alive connections (nproc)
	Root    string
	OutDir  string
	// SSRD is the daemon binary, built once by the caller.
	SSRD string
	// BuildS is how long that build took (bench.build_s).
	BuildS float64
	Log    io.Writer
}

func (c *runConfig) sizes() sizes { return sizesFor(c.Scale) }

// measure is how long the workload's measuring phase lasts. The traced run
// gives the workload half of Seconds: the layer suite that follows takes the
// other half several times over, and the contract caps the whole.
func (c *runConfig) measure() time.Duration {
	d := time.Duration(c.Seconds * float64(time.Second))
	if c.Trace {
		d /= 2
	}
	return d
}

func (c *runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.Log, format+"\n", args...)
}

// check is one named correctness check; a failed one makes the run exit
// non-zero and names itself.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is what one workload run reports.
type result struct {
	Workload string `json:"workload"`
	// Metrics holds every metric measured, by declared name.
	Metrics map[string]float64 `json:"metrics"`
	// Samples is the sample count behind each timing.
	Samples   map[string]int `json:"samples,omitempty"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Checks    []check        `json:"checks"`
	// Fingerprints of the simulated cells, by replication, for the
	// cross-workload passivity check and the A/A exactness check.
	Fingerprints []string `json:"fingerprints,omitempty"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Metrics: map[string]float64{}, Samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

func (r *result) setN(name string, v float64, samples int) {
	r.Metrics[name] = v
	r.Samples[name] = samples
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *result) failedChecks() []check {
	var out []check
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// checkTally folds a check repeated once per unit (replication, segment,
// request) into one: it passes when every unit passed and otherwise carries
// the first failure.
type checkTally struct {
	names []string
	fail  map[string]string
}

func (t *checkTally) add(name string, ok bool, format string, args ...any) {
	if t.fail == nil {
		t.fail = map[string]string{}
	}
	if _, seen := t.fail[name]; !seen {
		t.names = append(t.names, name)
		t.fail[name] = ""
	}
	if !ok && t.fail[name] == "" {
		t.fail[name] = fmt.Sprintf(format, args...)
	}
}

// merge folds another tally's units into this one.
func (t *checkTally) merge(o *checkTally) {
	for _, name := range o.names {
		t.add(name, o.fail[name] == "", "%s", o.fail[name])
	}
}

func (t *checkTally) report(r *result) {
	for _, name := range t.names {
		r.check(name, t.fail[name] == "", "%s", t.fail[name])
	}
}

// contractLine is the one JSON object the contract wants as the last line of
// standard output: exactly correct, attempted, failed and metrics, the
// metrics being every declared end-to-end metric (or every layer metric on
// the traced run).
func (r *result) contractLine(defs []metricDef) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		metrics[d.Name] = mv{Value: v, Unit: d.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct() && r.Failed == 0, attempted, r.Failed, metrics})
}

// printMetrics writes the metrics of defs that the result carries, by name
// with unit and sample count.
func (r *result) printMetrics(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-34s %14.6g %-9s", d.Name, v, d.Unit)
		if n, ok := r.Samples[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
}

func (c check) print(w io.Writer) {
	mark := "ok  "
	if !c.OK {
		mark = "FAIL"
	}
	fmt.Fprintf(w, "  check %s %s %s\n", mark, c.Name, c.Detail)
}

func (r *result) printChecks(w io.Writer) {
	for _, c := range r.Checks {
		c.print(w)
	}
}

// medianSetup runs setup n times and returns the last set-up's product and
// the median duration. Every product but the last is handed to discard.
func medianSetup[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}
