package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ssr/internal/dag"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func sample() []Event {
	return []Event{
		{Job: 2, JobName: "bg", Phase: 0, Task: 0, Slot: 1, Start: sec(1), End: sec(5)},
		{Job: 1, JobName: "fg", Phase: 0, Task: 0, Slot: 0, Local: true, Start: sec(0), End: sec(2)},
		{Job: 1, JobName: "fg", Phase: 1, Task: 0, Slot: 0, Local: true, Start: sec(2), End: sec(4)},
		{Job: 1, JobName: "fg", Phase: 1, Task: 1, Slot: 2, Copy: true, Killed: true, Start: sec(2), End: sec(3)},
	}
}

func recorderWith(events []Event) *Recorder {
	var r Recorder
	for _, ev := range events {
		r.Append(ev)
	}
	return &r
}

func TestRecorderSortsEvents(t *testing.T) {
	r := recorderWith(sample())
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	got := r.Events()
	if got[0].Job != 1 || got[0].Start != 0 {
		t.Errorf("first event = %+v, want fg phase 0 at t=0", got[0])
	}
	for i := 1; i < len(got); i++ {
		if got[i].Start < got[i-1].Start {
			t.Fatalf("events not sorted by start: %v", got)
		}
	}
	// Returned slice is a copy.
	got[0].Job = 99
	if r.Events()[0].Job == 99 {
		t.Error("Events should return a copy")
	}
}

func TestWriteCSV(t *testing.T) {
	r := recorderWith(sample())
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parse CSV: %v", err)
	}
	if len(records) != 5 { // header + 4 events
		t.Fatalf("records = %d, want 5", len(records))
	}
	if records[0][0] != "job" || records[0][9] != "endSec" {
		t.Errorf("unexpected header: %v", records[0])
	}
	// First data row is the earliest event (fg task at t=0).
	if records[1][1] != "fg" || records[1][8] != "0.000000" {
		t.Errorf("unexpected first row: %v", records[1])
	}
}

func TestWriteJSON(t *testing.T) {
	r := recorderWith(sample())
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded []Event
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("parse JSON: %v", err)
	}
	if len(decoded) != 4 {
		t.Fatalf("decoded %d events, want 4", len(decoded))
	}
	if decoded[0].JobName != "fg" {
		t.Errorf("first decoded = %+v", decoded[0])
	}
}

func TestGantt(t *testing.T) {
	out := Gantt(sample(), GanttOptions{Width: 40})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + slots 0..2
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "g") {
		t.Errorf("slot 0 row should contain fg's glyph: %q", lines[1])
	}
	if !strings.Contains(lines[2], "G") { // bg is remote: uppercase
		t.Errorf("slot 1 row should contain bg's uppercase glyph: %q", lines[2])
	}
	if !strings.Contains(lines[3], ".") {
		t.Errorf("slot 2 row should render the killed attempt as '.': %q", lines[3])
	}
}

func TestGanttRemoteUppercase(t *testing.T) {
	events := []Event{
		{Job: 1, JobName: "fg", Slot: 0, Local: false, Start: 0, End: sec(1)},
	}
	out := Gantt(events, GanttOptions{Width: 10})
	if !strings.Contains(out, "G") {
		t.Errorf("remote placement should render uppercase:\n%s", out)
	}
}

func TestGanttEdgeCases(t *testing.T) {
	if got := Gantt(nil, GanttOptions{}); !strings.Contains(got, "empty") {
		t.Errorf("empty trace rendering = %q", got)
	}
	// Slot bound limits rows.
	out := Gantt(sample(), GanttOptions{Width: 20, Slots: 1})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Errorf("bounded rendering has %d lines, want 2", len(lines))
	}
	// Zero-duration traces do not divide by zero.
	_ = Gantt([]Event{{Job: 1, JobName: "x", Slot: 0}}, GanttOptions{Width: 10})
}

func TestGanttGlyphFallback(t *testing.T) {
	events := []Event{{Job: 1, JobName: "---", Slot: 0, Local: true, Start: 0, End: sec(1)}}
	out := Gantt(events, GanttOptions{Width: 10})
	if !strings.Contains(out, "x") {
		t.Errorf("glyph fallback should be 'x':\n%s", out)
	}
}

func TestSummarize(t *testing.T) {
	got := Summarize(sample())
	if len(got) != 2 {
		t.Fatalf("summaries = %d, want 2", len(got))
	}
	fg := got[0]
	if fg.Job != 1 || fg.Attempts != 3 || fg.Copies != 1 || fg.Killed != 1 {
		t.Errorf("fg summary = %+v", fg)
	}
	if fg.Busy != sec(5) { // 2 + 2 + 1
		t.Errorf("fg busy = %v, want 5s", fg.Busy)
	}
	bg := got[1]
	if bg.Job != 2 || bg.Attempts != 1 || bg.Remote != 1 {
		t.Errorf("bg summary = %+v", bg)
	}
	if len(Summarize(nil)) != 0 {
		t.Error("empty trace should summarize to nothing")
	}
}

// TestRecorderConcurrentAppend hammers the recorder from many goroutines
// while exports run: the online service appends from the scheduler loop
// while HTTP and shutdown goroutines read. Run under -race.
func TestRecorderConcurrentAppend(t *testing.T) {
	r := NewRecorder()
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Append(Event{Job: 1, JobName: "cc", Task: w*perWriter + i,
					Start: sec(float64(i)), End: sec(float64(i) + 1)})
			}
		}(w)
	}
	// Concurrent readers exercising Len, Events and the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Len()
			_ = r.Events()
			var buf bytes.Buffer
			if err := r.WriteCSV(&buf); err != nil {
				t.Errorf("concurrent WriteCSV: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Len(); got != writers*perWriter {
		t.Errorf("Len = %d, want %d", got, writers*perWriter)
	}
	seen := make(map[int]bool)
	for _, ev := range r.Events() {
		if seen[ev.Task] {
			t.Fatalf("task %d recorded twice", ev.Task)
		}
		seen[ev.Task] = true
	}
}

func TestRecorderWriteFile(t *testing.T) {
	r := recorderWith(sample())
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	jsonPath := filepath.Join(dir, "t.json")
	if err := r.WriteFile(csvPath); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvData), "job,jobName") {
		t.Errorf("csv missing header: %q", string(csvData[:20]))
	}
	jsonData, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(string(jsonData)), "[") {
		t.Error("json export should be an array")
	}
	if err := r.WriteFile("/no/such/dir/x.csv"); err == nil {
		t.Error("unwritable path should error")
	}
}

// TestRecorderChunkBoundaries checks the chunked store against a plain sorted
// slice at every size where a chunk opens, fills or is one short: Len, the
// order of Events and the exported bytes must not show where chunks end.
func TestRecorderChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, chunkEvents - 1, chunkEvents, chunkEvents + 1, 3*chunkEvents + 7} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			var r Recorder // the zero value is ready to use
			var want []Event
			for i := 0; i < n; i++ {
				ev := Event{
					Job: dag.JobID(1 + rng.Intn(5)), JobName: fmt.Sprintf("j%d", i%7), Phase: rng.Intn(3),
					Task: i, Slot: rng.Intn(64), Copy: i%5 == 0, Local: i%3 != 0, Killed: i%11 == 0,
					Start: time.Duration(rng.Intn(50)) * time.Second,
				}
				ev.End = ev.Start + time.Duration(1+rng.Intn(9000))*time.Millisecond
				r.Append(ev)
				want = append(want, ev)
			}
			sort.Slice(want, func(i, j int) bool { return eventLess(want[i], want[j]) })

			if r.Len() != n {
				t.Fatalf("Len = %d, want %d", r.Len(), n)
			}
			if got := r.Events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("Events differ from the sorted slice (got %d events, want %d)", len(got), len(want))
			}

			var wantJSON bytes.Buffer
			enc := json.NewEncoder(&wantJSON)
			enc.SetIndent("", "  ")
			if err := enc.Encode(want); err != nil {
				t.Fatal(err)
			}
			var gotJSON bytes.Buffer
			if err := r.WriteJSON(&gotJSON); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
				t.Errorf("WriteJSON bytes differ from encoding the sorted slice")
			}

			var wantCSV, gotCSV bytes.Buffer
			wantCSV.WriteString("job,jobName,phase,task,slot,copy,local,killed,startSec,endSec\n")
			for _, ev := range want {
				fmt.Fprintf(&wantCSV, "%d,%s,%d,%d,%d,%t,%t,%t,%.6f,%.6f\n", ev.Job, ev.JobName, ev.Phase,
					ev.Task, ev.Slot, ev.Copy, ev.Local, ev.Killed, ev.Start.Seconds(), ev.End.Seconds())
			}
			if err := r.WriteCSV(&gotCSV); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
				t.Errorf("WriteCSV bytes differ from formatting the sorted slice")
			}
		})
	}
}

// slotOf is the slot of the i-th event TestRecorderSnapshotsWhileAppending
// appends: every 97th is past int32, so the recorder keeps it wide.
func slotOf(i int) int {
	if i%97 == 0 {
		return math.MaxInt32 + 1 + i
	}
	return i % 64
}

// TestRecorderSnapshotsWhileAppending covers the fix for the export stall:
// Events used to copy the whole trace while holding the mutex Append needs,
// and now copies outside it. One goroutine appends 200k events, some of them
// wide, while another exports in a loop; every snapshot must be a sorted,
// duplicate-free prefix of what was appended. Run under -race.
func TestRecorderSnapshotsWhileAppending(t *testing.T) {
	const total = 200000
	r := NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			// Start rises with the append index, so a prefix of the
			// appends is exactly tasks 0..k-1 in order.
			r.Append(Event{Job: 1, JobName: "w", Task: i, Slot: slotOf(i), Start: time.Duration(i), End: time.Duration(i + 1)})
		}
	}()
	snapshots := 0
	for running := true; running; snapshots++ {
		select {
		case <-done:
			running = false // one last pass over the complete trace
		default:
		}
		before := r.Len()
		evs := r.Events()
		after := r.Len()
		if len(evs) < before || len(evs) > after {
			t.Fatalf("snapshot of %d events taken between Len %d and %d", len(evs), before, after)
		}
		for i, ev := range evs {
			if ev.Task != i || ev.Start != time.Duration(i) || ev.Slot != slotOf(i) {
				t.Fatalf("snapshot of %d: event %d is task %d on slot %d at %v; not a prefix",
					len(evs), i, ev.Task, ev.Slot, ev.Start)
			}
		}
		if snapshots%8 == 0 {
			if err := r.WriteCSV(io.Discard); err != nil {
				t.Fatalf("WriteCSV: %v", err)
			}
		}
	}
	if got := r.Len(); got != total {
		t.Errorf("Len = %d, want %d", got, total)
	}
	t.Logf("%d consistent snapshots while appending", snapshots)
}

// TestRecorderAllocatesPerChunk is the allocation guard: N appends cost the
// chunks that hold them plus the growth of the chunk list, and no more bytes
// than their records (the open chunk's unused tail aside). The ceiling is in
// records, not Events: an Event is 72 B, so chunks of Events would pass a
// ceiling in Events.
func TestRecorderAllocatesPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	const n = 40*chunkEvents + 100
	ev := Event{Job: 1, JobName: "guard", End: time.Second}
	var r Recorder
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		r.Append(ev)
	}
	runtime.ReadMemStats(&m1)
	if got, max := m1.Mallocs-m0.Mallocs, uint64(2*n/chunkEvents+8); got > max {
		t.Errorf("%d appends cost %d mallocs, want <= %d", n, got, max)
	}
	recordBytes := uint64(n) * uint64(unsafe.Sizeof(record{}))
	if got := m1.TotalAlloc - m0.TotalAlloc; got > recordBytes*11/10 {
		t.Errorf("%d B of records cost %d B allocated, want <= 1.1x", recordBytes, got)
	}
	if r.Len() != n {
		t.Errorf("Len = %d, want %d", r.Len(), n)
	}
}

// TestTraceRecordSize pins the record at 56 B: 1024 of them fill seven whole
// heap pages.
func TestTraceRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got > 56 {
		t.Errorf("record is %d B, want <= 56", got)
	}
}

// TestRecordRoundTrip appends events at the edges of what a record holds, and
// past them, and requires Events to give each back unchanged: alone, and all
// together against the sorted slice.
func TestRecordRoundTrip(t *testing.T) {
	rows := []struct {
		name string
		ev   Event
	}{
		{"zero", Event{}},
		{"int32 max", Event{Job: math.MaxInt64, JobName: "max", Phase: math.MaxInt32, Task: math.MaxInt32,
			Slot: math.MaxInt32, Start: math.MaxInt64 - 1, End: math.MaxInt64}},
		{"int32 min", Event{Job: math.MinInt64, JobName: "min", Phase: math.MinInt32, Task: math.MinInt32,
			Slot: math.MinInt32, Start: math.MinInt64, End: -1}},
		{"no slot", Event{Job: 3, JobName: "unplaced", Phase: 2, Task: 9, Slot: -1, Start: sec(1), End: sec(2)}},
		{"copy", Event{Job: 4, JobName: "c", Copy: true, Start: sec(3), End: sec(4)}},
		{"local", Event{Job: 4, JobName: "l", Local: true, Start: sec(3), End: sec(4)}},
		{"killed", Event{Job: 4, JobName: "k", Killed: true, Start: sec(3), End: sec(4)}},
		{"all flags", Event{Job: 4, JobName: "ckl", Copy: true, Local: true, Killed: true, Start: sec(3), End: sec(4)}},
		{"wide phase", Event{Job: 5, JobName: "wp", Phase: math.MaxInt32 + 1, Copy: true, Start: sec(5), End: sec(6)}},
		{"wide task", Event{Job: 5, JobName: "wt", Task: math.MinInt32 - 1, Local: true, Start: sec(5), End: sec(6)}},
		{"wide slot", Event{Job: 5, JobName: "ws", Slot: math.MaxInt, Killed: true, Start: sec(5), End: sec(6)}},
	}
	var all Recorder
	var want []Event
	for _, row := range rows {
		var r Recorder
		r.Append(row.ev)
		if got := r.Events(); len(got) != 1 || !reflect.DeepEqual(got[0], row.ev) {
			t.Errorf("%s: Events() = %+v, want [%+v]", row.name, got, row.ev)
		}
		all.Append(row.ev)
		want = append(want, row.ev)
	}
	sort.Slice(want, func(i, j int) bool { return eventLess(want[i], want[j]) })
	if got := all.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("all rows in one recorder:\n got %+v\nwant %+v", got, want)
	}
	if len(all.wide) != 3 {
		t.Errorf("recorder keeps %d wide events, want 3", len(all.wide))
	}
}
