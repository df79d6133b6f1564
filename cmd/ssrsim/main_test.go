package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tiny returns fast-running base arguments.
func tiny(extra ...string) []string {
	base := []string{"-nodes", "4", "-slots", "2", "-bg", "5", "-window", "30s"}
	return append(base, extra...)
}

// output runs the command and returns what it printed.
func output(t *testing.T, args []string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, out.String())
	}
	return out.String()
}

func TestRunModes(t *testing.T) {
	tests := [][]string{
		tiny("-mode", "none", "-suite", "none"),
		tiny("-mode", "ssr", "-suite", "none"),
		tiny("-mode", "ssr", "-suite", "none", "-p", "0.5", "-mitigate"),
		tiny("-mode", "timeout", "-suite", "none", "-timeout", "5s"),
		tiny("-mode", "static", "-suite", "none", "-static", "2"),
	}
	for _, args := range tests {
		if err := run(args, io.Discard); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunSuites(t *testing.T) {
	// Bigger cluster so the ML suites fit.
	for _, suite := range []string{"ml", "ml2x", "sql"} {
		args := []string{"-nodes", "30", "-slots", "2", "-bg", "5",
			"-window", "60s", "-mode", "ssr", "-suite", suite}
		if err := run(args, io.Discard); err != nil {
			t.Errorf("suite %s: %v", suite, err)
		}
	}
}

// wallClock matches the one wall-clock fragment of the report, the
// "simulated ... in 3ms (virtual makespan ...)" duration.
var wallClock = regexp.MustCompile(` in [^ ]+ \(virtual makespan `)

// maskWallClock replaces the run's wall-clock duration with "X", so two runs
// of the same arguments print the same bytes.
func maskWallClock(out string) string {
	return wallClock.ReplaceAllString(out, " in X (virtual makespan ")
}

func TestRunParallelBaselinesMatchSerial(t *testing.T) {
	args := func(parallel string) []string {
		return []string{"-nodes", "30", "-slots", "2", "-bg", "5",
			"-window", "60s", "-mode", "ssr", "-suite", "ml", "-parallel", parallel}
	}
	serial := output(t, args("1"))
	par := output(t, args("8"))
	if maskWallClock(serial) != maskWallClock(par) {
		t.Errorf("parallel output differs from serial:\n--- serial\n%s\n--- parallel\n%s", serial, par)
	}
	if !strings.Contains(serial, "fg kmeans") {
		t.Errorf("missing foreground result lines:\n%s", serial)
	}
}

func TestRunVerbose(t *testing.T) {
	if err := run(tiny("-suite", "none", "-v"), io.Discard); err != nil {
		t.Fatalf("run -v: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(tiny("-mode", "bogus"), io.Discard); err == nil {
		t.Error("bad mode should error")
	}
	if err := run(tiny("-suite", "bogus"), io.Discard); err == nil {
		t.Error("bad suite should error")
	}
	if err := run([]string{"-not-a-flag"}, io.Discard); err == nil {
		t.Error("bad flag should error")
	}
	if err := run(tiny("-mode", "ssr", "-p", "7"), io.Discard); err == nil {
		t.Error("invalid P should error")
	}
}

func TestRunTraceExports(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "trace.csv")
	jsonPath := filepath.Join(dir, "trace.json")
	if err := run(tiny("-suite", "none", "-trace", csvPath, "-gantt"), io.Discard); err != nil {
		t.Fatalf("run -trace csv: %v", err)
	}
	if err := run(tiny("-suite", "none", "-trace", jsonPath), io.Discard); err != nil {
		t.Fatalf("run -trace json: %v", err)
	}
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("read csv: %v", err)
	}
	if !strings.HasPrefix(string(csvData), "job,jobName") {
		t.Errorf("csv missing header: %q", string(csvData[:40]))
	}
	jsonData, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("read json: %v", err)
	}
	if !strings.HasPrefix(strings.TrimSpace(string(jsonData)), "[") {
		t.Error("json trace should be an array")
	}
}

func TestRunTraceToBadPath(t *testing.T) {
	if err := run(tiny("-suite", "none", "-trace", "/definitely/not/a/dir/x.csv"), io.Discard); err == nil {
		t.Error("unwritable trace path should error")
	}
}

func TestRunJobsFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	wl := filepath.Join(dir, "workload.csv")
	// Dump a synthesized workload, then feed it back in as foreground.
	if err := run(tiny("-suite", "none", "-dumpjobs", wl), io.Discard); err != nil {
		t.Fatalf("run -dumpjobs: %v", err)
	}
	if err := run([]string{"-nodes", "8", "-slots", "2", "-bg", "0",
		"-window", "30s", "-jobs", wl, "-mode", "ssr"}, io.Discard); err != nil {
		t.Fatalf("run -jobs: %v", err)
	}
	if err := run(tiny("-jobs", filepath.Join(dir, "missing.csv")), io.Discard); err == nil {
		t.Error("missing jobs file should error")
	}
	if err := run(tiny("-suite", "none", "-dumpjobs", "/no/such/dir/x.csv"), io.Discard); err == nil {
		t.Error("unwritable dump path should error")
	}
}

func TestRunPerfettoAndAuditExports(t *testing.T) {
	dir := t.TempDir()
	perf := filepath.Join(dir, "perfetto.json")
	audit := filepath.Join(dir, "audit.jsonl")
	if err := run(tiny("-mode", "ssr", "-suite", "none",
		"-perfetto", perf, "-audit", audit), io.Discard); err != nil {
		t.Fatalf("run -perfetto -audit: %v", err)
	}
	perfData, err := os.ReadFile(perf)
	if err != nil {
		t.Fatalf("read perfetto: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(perfData, &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("perfetto trace has no events")
	}
	cats := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if c, ok := ev["cat"].(string); ok {
			cats[c] = true
		}
	}
	if !cats["task"] {
		t.Error("perfetto trace missing task events")
	}
	if !cats["reservation"] {
		t.Error("perfetto trace missing reservation spans")
	}
	auditData, err := os.ReadFile(audit)
	if err != nil {
		t.Fatalf("read audit: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(auditData)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty audit JSONL")
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("audit line 0 not JSON: %v", err)
	}
	if _, ok := first["kind"]; !ok {
		t.Errorf("audit line missing kind: %v", first)
	}
}

// goldenPath holds one "sha256  mode.variant.output" line per output of
// TestRunOutputsMatchGolden, in the order the test produces them.
const goldenPath = "testdata/golden.sha256"

// TestRunOutputsMatchGolden runs the command in every reservation mode, plain,
// under node faults and with the adaptive estimators (and SSR with straggler
// mitigation), and compares the SHA-256 of each output with the committed
// digest: stdout with -v and -gantt, the trace as CSV and as JSON, the
// Perfetto export and the audit stream. Everything but the wall-clock
// duration and the temp-dir paths in stdout rides the virtual clock, so a
// moved digest is a changed result. On a mismatch the test prints the full
// replacement file: commit it when the change is intended.
func TestRunOutputsMatchGolden(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if _, name, ok := strings.Cut(line, "  "); ok {
			want[name] = line
		}
	}
	modes := []struct {
		name string
		args []string
	}{
		{"none", []string{"-mode", "none"}},
		{"ssr", []string{"-mode", "ssr"}},
		{"timeout", []string{"-mode", "timeout"}},
		{"static", []string{"-mode", "static", "-static", "8"}},
	}
	variants := []struct {
		name string
		args []string
	}{
		{"plain", nil},
		{"faults", []string{"-mttf", "10m", "-repair", "1m"}},
		{"adaptive", []string{"-adaptive"}},
		{"mitigate", []string{"-mitigate"}},
	}
	var replacement strings.Builder
	var moved []string
	digest := func(name string, out []byte) {
		line := fmt.Sprintf("%x  %s", sha256.Sum256(out), name)
		fmt.Fprintln(&replacement, line)
		if want[name] != line {
			moved = append(moved, name)
		}
		delete(want, name)
	}
	for _, m := range modes {
		for _, v := range variants {
			if v.name == "mitigate" && m.name != "ssr" {
				continue
			}
			dir := t.TempDir()
			path := func(file string) string { return filepath.Join(dir, file) }
			// A contended cell (40 slots) so copies win, attempts are
			// killed and reservations expire.
			base := append(append([]string{"-nodes", "20"}, m.args...), v.args...)
			stdout := output(t, append(base, "-v", "-gantt", "-trace", path("trace.csv"),
				"-perfetto", path("perfetto.json"), "-audit", path("audit.jsonl")))
			output(t, append(base, "-trace", path("trace.json")))

			prefix := m.name + "." + v.name + "."
			digest(prefix+"stdout", []byte(strings.ReplaceAll(maskWallClock(stdout), dir, "DIR")))
			for _, file := range []string{"trace.csv", "trace.json", "perfetto.json", "audit.jsonl"} {
				out, err := os.ReadFile(path(file))
				if err != nil {
					t.Fatal(err)
				}
				digest(prefix+file, out)
			}
		}
	}
	for name := range want {
		moved = append(moved, name+" (no longer produced)")
	}
	if len(moved) > 0 {
		t.Errorf("ssrsim output differs from %s for: %s\nreplacement file:\n%s",
			goldenPath, strings.Join(moved, ", "), replacement.String())
	}
}
