package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run records a span around each call the benchmark makes into a
// layer: name, start, end, the span that caused it and the job it belongs
// to. Spans live in memory, one log per goroutine so recording takes no
// lock, and are written as Chrome trace-event JSON when the run ends. Spans
// inside the program under test are a later issue; these are recorded from
// the benchmark's own files only.

type span struct {
	name       string
	start, end time.Duration // since the recorder's origin
	parent     int           // index in the same log, -1 for a root
	job        int64         // 0 when the span belongs to no job
}

// spanLog is one goroutine's spans. A nil log records nothing, which is how
// untraced units run the same code.
type spanLog struct {
	origin time.Time
	tid    int
	spans  []span
}

func newSpanLog(origin time.Time, tid int) *spanLog {
	return &spanLog{origin: origin, tid: tid}
}

// begin opens a span and returns its index for end and for children.
func (l *spanLog) begin(name string, parent int, job int64) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: time.Since(l.origin), parent: parent, job: job})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].end = time.Since(l.origin)
}

// add records a span whose boundaries the caller already stamped.
func (l *spanLog) add(name string, start, end time.Time, parent int, job int64) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: start.Sub(l.origin), end: end.Sub(l.origin), parent: parent, job: job})
	return len(l.spans) - 1
}

// spanTotals is one span name's aggregate over a run.
type spanTotals struct {
	Name  string
	Count int
	Total time.Duration
	// Self is the span's duration minus the part its children cover.
	Self time.Duration
}

func aggregateSpans(logs []*spanLog) []spanTotals {
	byName := map[string]*spanTotals{}
	for _, l := range logs {
		if l == nil {
			continue
		}
		child := make([]time.Duration, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			t := byName[s.name]
			if t == nil {
				t = &spanTotals{Name: s.name}
				byName[s.name] = t
			}
			d := s.end - s.start
			t.Count++
			t.Total += d
			t.Self += d - child[i]
		}
	}
	out := make([]spanTotals, 0, len(byName))
	for _, t := range byName { // order fixed by the sort below
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// maxSpansWritten bounds the trace file; aggregates always cover every span.
const maxSpansWritten = 200000

// writeSpans writes the logs as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev) and returns the path.
func writeSpans(dir, workload string, logs []*spanLog) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	written := 0
	for _, l := range logs {
		if l == nil {
			continue
		}
		for i, s := range l.spans {
			if written == maxSpansWritten {
				break
			}
			if written > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"job":%d}}`,
				s.name, l.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.job)
			written++
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finishTrace writes the span file of a traced run and prints each span
// name's count, total and self time.
func finishTrace(cfg *runConfig, res *result, logs []*spanLog) error {
	path, err := writeSpans(cfg.OutDir, res.Workload, logs)
	if err != nil {
		return err
	}
	cfg.logf("spans written to %s", path)
	for _, t := range aggregateSpans(logs) {
		cfg.logf("  span %-30s n=%-8d total=%-12s self=%s", t.Name, t.Count, t.Total.Round(time.Microsecond), t.Self.Round(time.Microsecond))
	}
	return nil
}
