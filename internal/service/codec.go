package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"ssr/internal/tenant"
)

// The request codec: POST /v1/jobs is decoded, and every JobStatus, JobList
// and SSE frame encoded, without reflection and — on the job routes — from
// one pooled per-request scratch. encoding/json stays the reference both
// ways: the decoder declines anything but the shape clients send to
// json.Decoder over the same bytes, and the encoders emit byte for byte what
// json.Encoder with SetIndent("", "  ") (json.Marshal for SSE) emits.

const (
	// maxBodyBytes caps a POST /v1/jobs body; past it the reply is 413.
	maxBodyBytes = 1 << 20
	// maxPooledBytes is the most a buffer of a scratch may have grown to for
	// the scratch to be pooled again: one large request must not pin storage.
	maxPooledBytes = 64 << 10
)

// scratch is the working storage of one request on the job routes.
type scratch struct {
	body bytes.Buffer
	// phases backs the decoded JobSpec.Phases; floats and ints are the arenas
	// every phase's DurationsMs/CopyDurationsMs and Deps are carved from. The
	// spec is valid until release: Service.Submit copies what it keeps.
	phases []PhaseSpec
	floats []float64
	ints   []int
	out    []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns the scratch to the pool unless the request outgrew it.
func (s *scratch) release() {
	if s.body.Cap() > maxPooledBytes || cap(s.out) > maxPooledBytes ||
		8*cap(s.floats) > maxPooledBytes || 8*cap(s.ints) > maxPooledBytes ||
		80*cap(s.phases) > maxPooledBytes { // 8 bytes a number, 80 a PhaseSpec
		return
	}
	scratchPool.Put(s)
}

// readJobSpec reads the size-capped request body into the scratch and
// decodes it. The spec aliases the scratch.
func (s *scratch) readJobSpec(w http.ResponseWriter, r *http.Request) (JobSpec, error) {
	s.body.Reset()
	if _, err := s.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return JobSpec{}, err
	}
	return s.decodeJobSpec(s.body.Bytes())
}

// decodeJobSpec is json.NewDecoder(body).Decode(&spec) at a fraction of the
// cost for the bodies clients send: the fast path fills the spec or declines,
// and encoding/json decodes a declined body afresh, so every error message
// and every unusual-but-legal body is still its call.
func (s *scratch) decodeJobSpec(body []byte) (JobSpec, error) {
	if spec, ok := s.decodeFast(body); ok {
		return spec, nil
	}
	var spec JobSpec
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec)
	return spec, err
}

// decodeFast recognises one JSON object holding each JobSpec key at most
// once, in any order and exact case, with plain printable-ASCII strings,
// grammatical numbers (integers for the int fields), true/false, and any
// JSON whitespace; bytes after the object are ignored, as Decoder.Decode
// ignores them. Anything else — an escape, a byte >= 0x80, an unknown,
// repeated or case-variant key, null, a range error, a syntax error —
// declines. It must not be replaced by json.Unmarshal into a reused spec:
// encoding/json reuses slice capacity without zeroing the elements, so a
// phase would inherit the previous request's deps.
func (s *scratch) decodeFast(body []byte) (spec JobSpec, ok bool) {
	c := &cursor{b: body}
	s.floats, s.ints = s.floats[:0], s.ints[:0]
	var seen uint
	ok = c.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return once(&seen, 1<<0) && c.text(&spec.Name)
		case "priority":
			return once(&seen, 1<<1) && c.int(&spec.Priority)
		case "class":
			return once(&seen, 1<<2) && c.text(&spec.Class)
		case "parallelismKnown":
			return once(&seen, 1<<3) && c.bool(&spec.ParallelismKnown)
		case "tenant":
			return once(&seen, 1<<4) && c.text(&spec.Tenant)
		case "phases":
			return once(&seen, 1<<5) && s.phaseList(c, &spec.Phases)
		}
		return false
	})
	return spec, ok
}

func (s *scratch) phaseList(c *cursor, dst *[]PhaseSpec) bool {
	s.phases = s.phases[:0]
	ok := c.array(func() bool {
		s.phases = append(s.phases, PhaseSpec{}) // zeroed: nothing of the last request's
		ph := &s.phases[len(s.phases)-1]
		var seen uint
		return c.object(func(key []byte) bool {
			switch string(key) {
			case "durationsMs":
				return once(&seen, 1<<0) && s.floatList(c, &ph.DurationsMs)
			case "copyDurationsMs":
				return once(&seen, 1<<1) && s.floatList(c, &ph.CopyDurationsMs)
			case "deps":
				return once(&seen, 1<<2) && s.intList(c, &ph.Deps)
			case "demand":
				return once(&seen, 1<<3) && c.int(&ph.Demand)
			}
			return false
		})
	})
	// Present but empty is a non-nil empty slice to encoding/json, here and in
	// the two lists below.
	if *dst = s.phases; len(s.phases) == 0 {
		*dst = []PhaseSpec{}
	}
	return ok
}

// floatList parses an array of numbers onto the end of the float arena and
// hands out the part it added, capped so an append cannot reach a neighbour.
// An arena that grows mid-request moves; lists carved earlier keep the old
// array, theirs alone from then on.
func (s *scratch) floatList(c *cursor, dst *[]float64) bool {
	start := len(s.floats)
	ok := c.array(func() bool {
		tok, _, ok := c.number()
		f, err := strconv.ParseFloat(string(tok), 64)
		s.floats = append(s.floats, f)
		return ok && err == nil
	})
	if *dst = s.floats[start:len(s.floats):len(s.floats)]; len(*dst) == 0 {
		*dst = []float64{}
	}
	return ok
}

func (s *scratch) intList(c *cursor, dst *[]int) bool {
	start := len(s.ints)
	ok := c.array(func() bool {
		s.ints = append(s.ints, 0)
		return c.int(&s.ints[len(s.ints)-1])
	})
	if *dst = s.ints[start:len(s.ints):len(s.ints)]; len(*dst) == 0 {
		*dst = []int{}
	}
	return ok
}

// once marks bit in seen and reports whether it was clear: a repeated key
// declines, because encoding/json merges the second value into the first.
func once(seen *uint, bit uint) bool {
	dup := *seen&bit != 0
	*seen |= bit
	return !dup
}

// cursor walks a request body for decodeFast. Every method reports whether
// it recognised what it was asked for; false declines the whole body.
type cursor struct {
	b []byte
	i int
}

func (c *cursor) ws() {
	for c.i < len(c.b) && (c.b[c.i] == ' ' || c.b[c.i] == '\t' || c.b[c.i] == '\n' || c.b[c.i] == '\r') {
		c.i++
	}
}

// take consumes ch if it is the next byte; eat skips whitespace first.
func (c *cursor) take(ch byte) bool {
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

func (c *cursor) eat(ch byte) bool {
	c.ws()
	return c.take(ch)
}

// word consumes the literal w if the input continues with it.
func (c *cursor) word(w string) bool {
	if len(c.b)-c.i >= len(w) && string(c.b[c.i:c.i+len(w)]) == w {
		c.i += len(w)
		return true
	}
	return false
}

func (c *cursor) digits() bool {
	start := c.i
	for c.i < len(c.b) && c.b[c.i]-'0' <= 9 {
		c.i++
	}
	return c.i > start
}

// object walks {"key": value, ...}, calling field with the cursor on each
// value.
func (c *cursor) object(field func(key []byte) bool) bool {
	if !c.eat('{') {
		return false
	}
	if c.eat('}') {
		return true
	}
	for {
		key, ok := c.str()
		if !ok || !c.eat(':') || !field(key) {
			return false
		}
		if !c.eat(',') {
			return c.take('}')
		}
	}
}

// array walks [value, ...], calling elem with the cursor on each value.
func (c *cursor) array(elem func() bool) bool {
	if !c.eat('[') {
		return false
	}
	if c.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !c.eat(',') {
			return c.take(']')
		}
	}
}

// str recognises a string of printable ASCII with no escape in it and
// returns the bytes between the quotes.
func (c *cursor) str() ([]byte, bool) {
	if !c.eat('"') {
		return nil, false
	}
	for start := c.i; c.i < len(c.b); c.i++ {
		switch ch := c.b[c.i]; {
		case ch == '"':
			c.i++
			return c.b[start : c.i-1], true
		case ch < ' ' || ch > '~' || ch == '\\':
			return nil, false
		}
	}
	return nil, false
}

// text decodes a string value into a string of its own, not a view of the
// pooled body: names are what Submit keeps of a spec. The values most
// requests carry come from constants.
func (c *cursor) text(dst *string) bool {
	tok, ok := c.str()
	switch string(tok) {
	case "":
		*dst = ""
	case "foreground":
		*dst = "foreground"
	case "background":
		*dst = "background"
	case tenant.Default:
		*dst = tenant.Default
	default:
		*dst = string(tok)
	}
	return ok
}

// number recognises one number of the JSON grammar — before strconv, which
// accepts more than JSON does, sees it — and reports whether it is an integer
// literal (no fraction, no exponent).
func (c *cursor) number() (tok []byte, integer, ok bool) {
	c.ws()
	start := c.i
	c.take('-')
	if !c.take('0') && !c.digits() {
		return nil, false, false
	}
	integer = true
	if c.take('.') {
		if integer = false; !c.digits() {
			return nil, false, false
		}
	}
	if c.take('e') || c.take('E') {
		if integer = false; !c.take('+') {
			c.take('-')
		}
		if !c.digits() {
			return nil, false, false
		}
	}
	return c.b[start:c.i], integer, true
}

// int decodes an integer field the way encoding/json does: a literal with a
// fraction or an exponent, or one that overflows int, is not one.
func (c *cursor) int(dst *int) bool {
	tok, integer, _ := c.number()
	if !integer {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, 0)
	*dst = int(n)
	return err == nil
}

func (c *cursor) bool(dst *bool) bool {
	c.ws()
	*dst = c.word("true")
	return *dst || c.word("false")
}

// jsonContentType is shared by every reply the scratch writes: net/http
// copies the header map's values before sending, so one slice serves all.
var jsonContentType = []string{"application/json"}

// writeJobStatus and writeJobList reply with the value encoded into the
// scratch, in one Write; a value with a non-finite float in it goes through
// writeJSON, which treats it as it always has.
func (s *scratch) writeJobStatus(w http.ResponseWriter, code int, st *JobStatus) {
	enc := wire{b: s.out[:0], pretty: true}
	if enc.jobStatus(st); enc.bad {
		writeJSON(w, code, *st)
		return
	}
	s.send(w, code, enc.b)
}

func (s *scratch) writeJobList(w http.ResponseWriter, code int, list *JobList) {
	enc := wire{b: s.out[:0], pretty: true}
	if enc.jobList(list); enc.bad {
		writeJSON(w, code, *list)
		return
	}
	s.send(w, code, enc.b)
}

func (s *scratch) send(w http.ResponseWriter, code int, body []byte) {
	s.out = append(body, '\n') // json.Encoder ends every value with one
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(s.out) // a client that hung up has no one to tell
}

// appendSSE frames one event: id is the bus sequence number, event the
// lifecycle type, data the full JSON payload as json.Marshal renders it.
func appendSSE(b []byte, ev *Event) ([]byte, error) {
	b = append(b, "id: "...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, "\nevent: "...)
	b = append(b, ev.Type...)
	b = append(b, "\ndata: "...)
	enc := wire{b: b}
	if enc.event(ev); enc.bad {
		_, err := json.Marshal(*ev)
		return b, err
	}
	return append(enc.b, "\n\n"...), nil
}

// wire appends JSON the way encoding/json renders it: fields in declaration
// order, omitempty by the *Opt methods, HTML-escaped strings, ES6 floats;
// two spaces per level when pretty (the handler's json.Encoder), compact
// otherwise (json.Marshal).
type wire struct {
	b      []byte
	depth  int
	pretty bool
	// bad is set by a float encoding/json refuses (NaN, ±Inf); the caller
	// discards b and lets encoding/json report it.
	bad bool
}

const indentSpaces = "                " // deeper than a phase inside a job inside a list

// elem starts an array element or object member: a comma unless it is the
// first, then a fresh indented line when pretty.
func (w *wire) elem() {
	if last := w.b[len(w.b)-1]; last != '{' && last != '[' {
		w.b = append(w.b, ',')
	}
	w.newline()
}

func (w *wire) newline() {
	if w.pretty {
		w.b = append(w.b, '\n')
		w.b = append(w.b, indentSpaces[:2*w.depth]...)
	}
}

func (w *wire) open(ch byte) {
	w.b = append(w.b, ch)
	w.depth++
}

// close ends an object or array; an empty one stays on one line.
func (w *wire) close(ch byte) {
	w.depth--
	if last := w.b[len(w.b)-1]; last != '{' && last != '[' {
		w.newline()
	}
	w.b = append(w.b, ch)
}

func (w *wire) key(k string) {
	w.elem()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':')
	if w.pretty {
		w.b = append(w.b, ' ')
	}
}

func (w *wire) int(k string, v int64) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, v, 10)
}

func (w *wire) intOpt(k string, v int64) {
	if v != 0 {
		w.int(k, v)
	}
}

// float renders the ES6 number-to-string rule encoding/json follows:
// exponent form below 1e-6 and from 1e21, its two-digit negative exponent
// trimmed of the leading zero.
func (w *wire) float(k string, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.bad = true
		return
	}
	w.key(k)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

func (w *wire) floatOpt(k string, f float64) {
	if f != 0 {
		w.float(k, f)
	}
}

// str appends a plain string as it stands and hands one encoding/json would
// escape — a quote, a backslash, <, >, &, a control or non-ASCII byte — to
// json.Marshal.
func (w *wire) str(k, v string) {
	w.key(k)
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(v) // a string always marshals
			w.b = append(w.b, quoted...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, v...)
	w.b = append(w.b, '"')
}

func (w *wire) strOpt(k, v string) {
	if v != "" {
		w.str(k, v)
	}
}

func (w *wire) boolOpt(k string, v bool) {
	if v {
		w.key(k)
		w.b = append(w.b, "true"...)
	}
}

func (w *wire) jobStatus(st *JobStatus) {
	w.open('{')
	w.int("id", st.ID)
	w.str("name", st.Name)
	w.str("state", st.State)
	w.int("priority", int64(st.Priority))
	w.float("submittedMs", st.SubmittedMs)
	w.floatOpt("finishedMs", st.FinishedMs)
	w.floatOpt("jctMs", st.JCTMs)
	w.int("phasesDone", int64(st.PhasesDone))
	w.int("numPhases", int64(st.NumPhases))
	w.int("runningSlots", int64(st.RunningSlots))
	w.int("reservedIdle", int64(st.ReservedIdle))
	w.int("tasksRun", int64(st.TasksRun))
	w.intOpt("copiesLaunched", int64(st.CopiesLaunched))
	w.intOpt("copiesWon", int64(st.CopiesWon))
	w.intOpt("shard", int64(st.Shard))
	w.intOpt("borrowedSlots", int64(st.BorrowedSlots))
	w.intOpt("remoteTasks", int64(st.RemoteTasks))
	if len(st.Phases) > 0 {
		w.key("phases")
		w.open('[')
		for i := range st.Phases {
			ph := &st.Phases[i]
			w.elem()
			w.open('{')
			w.int("id", int64(ph.ID))
			w.int("tasksDone", int64(ph.TasksDone))
			w.int("tasks", int64(ph.Tasks))
			w.int("running", int64(ph.Running))
			w.float("deadlineMs", ph.DeadlineMs)
			w.close('}')
		}
		w.close(']')
	}
	w.strOpt("tenant", st.Tenant)
	w.close('}')
}

func (w *wire) jobList(list *JobList) {
	w.open('{')
	w.key("jobs")
	if list.Jobs == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for i := range list.Jobs {
			w.elem()
			w.jobStatus(&list.Jobs[i])
		}
		w.close(']')
	}
	w.intOpt("nextAfter", list.NextAfter)
	w.close('}')
}

func (w *wire) event(ev *Event) {
	w.open('{')
	w.key("seq")
	w.b = strconv.AppendUint(w.b, ev.Seq, 10)
	w.float("timeMs", ev.TimeMs)
	w.str("type", ev.Type)
	w.int("job", ev.Job)
	w.strOpt("jobName", ev.JobName)
	w.int("phase", int64(ev.Phase))
	w.int("task", int64(ev.Task))
	w.int("slot", int64(ev.Slot))
	w.intOpt("shard", int64(ev.Shard))
	w.intOpt("count", int64(ev.Count))
	w.boolOpt("copy", ev.Copy)
	w.boolOpt("local", ev.Local)
	w.close('}')
}
