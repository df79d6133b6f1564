// Package trace records per-attempt execution traces of a simulation run
// and exports them as CSV or JSON, plus a plain-text Gantt rendering for
// eyeballing schedules. Traces make simulator behavior auditable: every
// task attempt — original or speculative copy, winner or killed — appears
// with its slot, timing and locality.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ssr/internal/dag"
)

// Event is one task attempt's execution record.
type Event struct {
	Job     dag.JobID     `json:"job"`
	JobName string        `json:"jobName"`
	Phase   int           `json:"phase"`
	Task    int           `json:"task"`
	Slot    int           `json:"slot"`
	Copy    bool          `json:"copy"`
	Local   bool          `json:"local"`
	Killed  bool          `json:"killed"`
	Start   time.Duration `json:"startNs"`
	End     time.Duration `json:"endNs"`
}

// record is how the recorder keeps one Event: 56 B instead of 72. Phase,
// task and slot fit in int32 for every job the driver runs; an event whose
// fields do not fit is kept whole in Recorder.wide, and its record is only
// flagWide.
type record struct {
	start, end        time.Duration
	job               dag.JobID
	name              string
	phase, task, slot int32
	flags             uint8
}

// record flags.
const (
	flagCopy uint8 = 1 << iota
	flagLocal
	flagKilled
	flagWide
)

// fits32 reports whether v survives a round trip through int32.
func fits32(v int) bool { return v == int(int32(v)) }

// compact packs ev into a record; ok is false when it does not fit.
func compact(ev *Event) (rec record, ok bool) {
	if !fits32(ev.Phase) || !fits32(ev.Task) || !fits32(ev.Slot) {
		return record{flags: flagWide}, false
	}
	rec = record{start: ev.Start, end: ev.End, job: ev.Job, name: ev.JobName,
		phase: int32(ev.Phase), task: int32(ev.Task), slot: int32(ev.Slot)}
	if ev.Copy {
		rec.flags |= flagCopy
	}
	if ev.Local {
		rec.flags |= flagLocal
	}
	if ev.Killed {
		rec.flags |= flagKilled
	}
	return rec, true
}

// event renders a record that is not flagWide.
func (rec *record) event() Event {
	return Event{
		Job: rec.job, JobName: rec.name,
		Phase: int(rec.phase), Task: int(rec.task), Slot: int(rec.slot),
		Copy: rec.flags&flagCopy != 0, Local: rec.flags&flagLocal != 0, Killed: rec.flags&flagKilled != 0,
		Start: rec.start, End: rec.end,
	}
}

// chunkEvents is the capacity of one storage chunk. 1024 records of 56 B are
// 56 KB: seven whole heap pages, so a chunk wastes nothing to rounding.
const chunkEvents = 1024

// Recorder accumulates events. The zero value is ready to use. Recorder is
// safe for concurrent use: the online service appends from the scheduler
// loop while exports run from HTTP or shutdown goroutines.
//
// Events live as compact records in fixed-capacity chunks rather than one
// doubling slice, so recording N events allocates N records' worth of
// memory, once, and never copies an old one.
type Recorder struct {
	mu sync.Mutex
	// chunks holds the records in append order; all but the last are full.
	// A stored chunk pointer and a written record never change again, which
	// is what lets Events read them without holding mu.
	chunks []*[chunkEvents]record
	n      int
	// wide holds, by append position, each event whose record is flagWide.
	wide map[int]Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Append records one event.
func (r *Recorder) Append(ev Event) {
	rec, ok := compact(&ev)
	r.mu.Lock()
	i := r.n % chunkEvents
	if i == 0 {
		r.chunks = append(r.chunks, new([chunkEvents]record))
	}
	r.chunks[len(r.chunks)-1][i] = rec
	if !ok {
		if r.wide == nil {
			r.wide = make(map[int]Event)
		}
		r.wide[r.n] = ev
	}
	r.n++
	r.mu.Unlock()
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Events returns the recorded events sorted by (start, job, phase, task).
// The returned slice is a copy, taken without stalling Append: only the
// chunk list, the count and the rare wide event are read under the lock,
// and the records below that count are immutable.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	chunks, n := r.chunks, r.n
	r.mu.Unlock()
	if n == 0 {
		return nil
	}
	out := make([]Event, n)
	for i := range out {
		rec := &chunks[i/chunkEvents][i%chunkEvents]
		if rec.flags&flagWide == 0 {
			out[i] = rec.event()
			continue
		}
		r.mu.Lock()
		out[i] = r.wide[i]
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return eventLess(out[i], out[j]) })
	return out
}

// eventLess is the export order: (start, job, phase, task).
func eventLess(a, b Event) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Job != b.Job {
		return a.Job < b.Job
	}
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	return a.Task < b.Task
}

// WriteCSV emits the trace with a header row. Times are in seconds.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"job", "jobName", "phase", "task", "slot", "copy", "local", "killed", "startSec", "endSec"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, ev := range r.Events() {
		rec := []string{
			strconv.FormatInt(int64(ev.Job), 10),
			ev.JobName,
			strconv.Itoa(ev.Phase),
			strconv.Itoa(ev.Task),
			strconv.Itoa(ev.Slot),
			strconv.FormatBool(ev.Copy),
			strconv.FormatBool(ev.Local),
			strconv.FormatBool(ev.Killed),
			strconv.FormatFloat(ev.Start.Seconds(), 'f', 6, 64),
			strconv.FormatFloat(ev.End.Seconds(), 'f', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write record: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// WriteJSON emits the trace as a JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Events()); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// WriteFile exports the recorded events to path in the format implied by
// the file extension: .json for JSON, anything else CSV.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		// Close errors surface through the write path below; a second
		// close is harmless.
		_ = f.Close()
	}()
	if strings.HasSuffix(path, ".json") {
		if err := r.WriteJSON(f); err != nil {
			return err
		}
	} else if err := r.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

// GanttOptions configures the text rendering.
type GanttOptions struct {
	// Width is the number of character columns (default 80).
	Width int
	// Slots limits the rendering to slot IDs below this bound; 0 renders
	// every slot that appears in the trace.
	Slots int
}

// Gantt renders the trace as one text row per slot. Each attempt paints its
// span with the last letter or digit of the job name, uppercased when the
// placement lost locality; a killed attempt paints '.' (see glyph). Later
// events overwrite earlier ones where spans share a column.
func Gantt(events []Event, opts GanttOptions) string {
	if len(events) == 0 {
		return "(empty trace)\n"
	}
	width := opts.Width
	if width <= 0 {
		width = 80
	}
	var end time.Duration
	maxSlot := 0
	for _, ev := range events {
		if ev.End > end {
			end = ev.End
		}
		if ev.Slot > maxSlot {
			maxSlot = ev.Slot
		}
	}
	if opts.Slots > 0 && maxSlot >= opts.Slots {
		maxSlot = opts.Slots - 1
	}
	if end <= 0 {
		end = time.Second
	}
	rows := make([][]byte, maxSlot+1)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", width))
	}
	col := func(t time.Duration) int {
		c := int(int64(t) * int64(width) / int64(end))
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	for _, ev := range events {
		if ev.Slot < 0 || ev.Slot > maxSlot {
			continue
		}
		mark := glyph(ev)
		from, to := col(ev.Start), col(ev.End)
		for c := from; c <= to; c++ {
			rows[ev.Slot][c] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time 0 .. %v, one row per slot\n", end.Round(time.Millisecond))
	for i, row := range rows {
		fmt.Fprintf(&b, "slot %3d |%s|\n", i, string(row))
	}
	return b.String()
}

// glyph picks the paint character for an event: the job name's trailing
// letter, uppercased for remote (penalized) placements; killed attempts
// render as '.'.
func glyph(ev Event) byte {
	if ev.Killed {
		return '.'
	}
	name := ev.JobName
	ch := byte('x')
	for i := len(name) - 1; i >= 0; i-- {
		c := name[i]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			ch = c
			break
		}
	}
	if !ev.Local {
		if ch >= 'a' && ch <= 'z' {
			ch = ch - 'a' + 'A'
		}
	}
	return ch
}

// Summary aggregates a trace into per-job counters.
type Summary struct {
	Job      dag.JobID
	JobName  string
	Attempts int
	Copies   int
	Killed   int
	Remote   int
	Busy     time.Duration // total attempt runtime, including killed spans
}

// Summarize groups events by job, sorted by job ID.
func Summarize(events []Event) []Summary {
	byJob := make(map[dag.JobID]*Summary)
	for _, ev := range events {
		s := byJob[ev.Job]
		if s == nil {
			s = &Summary{Job: ev.Job, JobName: ev.JobName}
			byJob[ev.Job] = s
		}
		s.Attempts++
		if ev.Copy {
			s.Copies++
		}
		if ev.Killed {
			s.Killed++
		}
		if !ev.Local {
			s.Remote++
		}
		s.Busy += ev.End - ev.Start
	}
	out := make([]Summary, 0, len(byJob))
	for _, s := range byJob {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}
