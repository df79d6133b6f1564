package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/stats"
	"ssr/internal/tenant"
	"ssr/internal/workload"
)

// paddedSpec is a valid one-phase spec of exactly size bytes: tasks tasks of
// 1 ms, then spaces up to the closing brackets, so a reader that stops short
// of the last byte cannot decode it.
func paddedSpec(size, tasks int) string {
	head, tail := `{"name":"big","priority":1,"phases":[{"durationsMs":[1`, `]}]}`
	head += strings.Repeat(",1", tasks-1)
	return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
}

// usedScratch is a scratch the way the pool hands one out: a three-phase
// spec with deps, copy durations and demand has been through it.
func usedScratch(t testing.TB) *scratch {
	s := new(scratch)
	if _, ok := s.decodeFast([]byte(`{"name":"before","priority":7,"class":"background","parallelismKnown":true,"tenant":"t1","phases":[
		{"durationsMs":[11,12,13],"copyDurationsMs":[21,22,23],"demand":2},
		{"durationsMs":[14,15],"copyDurationsMs":[24,25],"deps":[0],"demand":3},
		{"durationsMs":[16],"copyDurationsMs":[26],"deps":[0,1],"demand":4}]}`)); !ok {
		t.Fatal("the fast path declined a plain three-phase spec")
	}
	return s
}

// clientSpecs is what the tree's clients post: the ML and SQL suites and a
// background batch through SpecOf, and the online mix.
func clientSpecs(t testing.TB) []JobSpec {
	var jobs []*dag.Job
	for i, spec := range workload.MLSuite() {
		j, err := spec.Build(dag.JobID(i+1), 10, 0, stats.SubStream(606, "codec-"+spec.Name, i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i, q := range workload.SQLQueries(1) {
		j, err := q.Build(dag.JobID(100+i), 10, 0, stats.SubStream(606, "codec-"+q.Name, i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	bg, err := workload.Background(workload.BackgroundConfig{
		Jobs: 12, Window: time.Minute, MeanTask: 50 * time.Second,
		Alpha: 1.6, DurationScale: 1, MaxParallelism: 60,
	}, 1000, 1, stats.Stream(606, "codec-bg"))
	if err != nil {
		t.Fatal(err)
	}
	var specs []JobSpec
	for _, j := range append(jobs, bg...) {
		specs = append(specs, SpecOf(j))
	}
	for i := 0; i < 10; i++ {
		specs = append(specs, onlineMixSpec(i))
	}
	return specs
}

// clientBodies renders clientSpecs the two ways clients do: json.Marshal
// (client.go, ssrload, the benchmark) and indented (curl from a file).
func clientBodies(t testing.TB) [][]byte {
	var out [][]byte
	for _, spec := range clientSpecs(t) {
		compact, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(spec, "\t", "  ")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, compact, indented)
	}
	return out
}

const (
	reversedBody = `{"phases":[{"durationsMs":[1],"demand":2,"deps":[0],"copyDurationsMs":[2]}],"tenant":"t","parallelismKnown":true,"class":"background","priority":4,"name":"reversed"}`
	spacedBody   = " \t\r\n{ \t\r\n\"name\" \t\r\n: \t\r\n\"ws\" \t\r\n, \t\r\n\"parallelismKnown\" \t\r\n: \t\r\ntrue \t\r\n, \t\r\n\"phases\" \t\r\n: \t\r\n[ \t\r\n{ \t\r\n\"durationsMs\" \t\r\n: \t\r\n[ \t\r\n1 \t\r\n, \t\r\n2 \t\r\n] \t\r\n, \t\r\n\"deps\" \t\r\n: \t\r\n[ \t\r\n] \t\r\n} \t\r\n] \t\r\n} \t\r\n"
)

const oneValidBody = `{"name":"j","priority":-3,"class":"foreground","parallelismKnown":false,"tenant":"a-b_C9","phases":[{"durationsMs":[1.5e3,2,0.25],"copyDurationsMs":[1,2,3],"deps":[],"demand":0},{"durationsMs":[7],"deps":[0]}]}`

// oddBodies is everything the fast path has to get right or decline: each is
// decoded exactly as encoding/json decodes it, whichever path takes it.
func oddBodies() []string {
	bodies := []string{
		``, ` `, `{}`, ` { } `, `[]`, `"x"`, `1`, `null`, `true`, `{`, `{"`, `{"name"`, `{"name":`,
		reversedBody, spacedBody,
		`{"Name":"case","PHASES":[{"DurationsMs":[1]}]}`,
		`{"name":"dup","phases":[{"durationsMs":[1],"deps":[0]},{"durationsMs":[2]}],"phases":[{"durationsMs":[3]}]}`,
		`{"name":"dup","phases":[{"durationsMs":[1],"deps":[0],"deps":[]}]}`,
		`{"name":"a","name":"b"}`,
		`{"name":null}`, `{"priority":null}`, `{"class":null}`, `{"parallelismKnown":null}`, `{"tenant":null}`, `{"phases":null}`,
		`{"phases":[null]}`, `{"phases":[{"durationsMs":null}]}`, `{"phases":[{"copyDurationsMs":null}]}`,
		`{"phases":[{"deps":null}]}`, `{"phases":[{"demand":null}]}`, `{"phases":[{"durationsMs":[null]}]}`,
		`{"name":"j"}`, `{"name":"日本語"}`, `{"name":"café"}`, `{"name":"a\"b"}`, `{"name":"a\\b"}`, "{\"name\":\"tab\there\"}",
		"{\"name\":\"del\x7f\"}", "{\"name\":\"bad\xff\"}", `{"name":"<&>"}`, `{"name":""}`, `{"name":"default","tenant":"default","class":"foreground"}`,
		`{"unknown":1,"name":"x"}`, `{"name":"x","extra":{"deep":[1,{"a":null}]}}`,
		`{"name":1}`, `{"priority":"1"}`, `{"parallelismKnown":1}`, `{"parallelismKnown":"true"}`, `{"phases":{}}`, `{"phases":[[]]}`,
		`{"parallelismKnown":true}`, `{"parallelismKnown":false}`, `{"parallelismKnown":truex}`, `{"parallelismKnown":tru}`, `{"parallelismKnown":TRUE}`,
		`{"phases":[]}`, `{"phases":[{}]}`, `{"phases":[{"durationsMs":[]}]}`, `{"phases":[{"deps":[],"copyDurationsMs":[]}]}`,
		`{"name":"a",}`, `{,"name":"a"}`, `{"name":"a" "priority":1}`, `{"name" "a"}`, `{"name":"a"}}`, `{"name":"a"}{"name":"b"}`, `{"name":"a"} trailing`,
		`{"name":"a"}` + "\x00", `{"phases":[{"durationsMs":[1,]}]}`, `{"phases":[{"durationsMs":[,1]}]}`, `{"phases":[{"durationsMs":[1 2]}]}`, `{"phases":[{"durationsMs":[1]]}`,
		" \t\r\n{ \t\r\n\"name\" \t\r\n: \t\r\n\"ws\" \t\r\n, \t\r\n\"priority\" \t\r\n: \t\r\n2 \t\r\n, \t\r\n\"phases\" \t\r\n: \t\r\n[ \t\r\n{ \t\r\n\"durationsMs\" \t\r\n: \t\r\n[ \t\r\n1 \t\r\n, \t\r\n2 \t\r\n] \t\r\n, \"parallelismKnown\":1} \t\r\n] \t\r\n} \t\r\n",
		"{\"name\":\"vt\"\v}", "{\"name\":\"ff\",\f\"priority\":1}", "\ufeff{\"name\":\"bom\"}",
		strings.Repeat("[", 10000), `{"phases":` + strings.Repeat("[", 10000), `{"x":` + strings.Repeat(`{"x":`, 10000),
		paddedSpec(4096, 300),
	}
	for _, n := range []string{
		`0`, `-0`, `1`, `-1`, `01`, `-01`, `00`, `1.`, `.5`, `-.5`, `+1`, `1e999`, `-1e999`, `1e-999`, `0x10`, `1_0`, `1_000`,
		`Infinity`, `-Infinity`, `NaN`, `1.5`, `1e2`, `1E2`, `1e+2`, `1e-2`, `1e`, `1e+`, `1.e2`, `1.0`, `-`, `--1`, `0.0`, `0e0`,
		`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`, `18446744073709551616`,
		`123456789012345678901234567890123456789012345678901234567890`, `0.1234567890123456789012345678901234567890123456789`,
		`4.9e-324`, `2.5e-324`, `1.7976931348623157e308`, `1.7976931348623159e308`, `1e22`, `1e-8`, `100000000000000000000000`,
	} {
		bodies = append(bodies,
			`{"name":"n","priority":`+n+`}`,
			`{"name":"n","phases":[{"durationsMs":[`+n+`]}]}`,
			`{"name":"n","phases":[{"durationsMs":[1],"copyDurationsMs":[2,`+n+`]}]}`,
			`{"name":"n","phases":[{"durationsMs":[1],"deps":[`+n+`]}]}`,
			`{"name":"n","phases":[{"durationsMs":[1],"demand":`+n+`}]}`)
	}
	for i := 0; i < len(oneValidBody); i++ {
		bodies = append(bodies, oneValidBody[:i])
	}
	return append(bodies, oneValidBody)
}

// checkDecode holds one body to the codec's contract: (a) whatever the fast
// path accepts, encoding/json accepts, and into an equal spec — nil versus
// empty slices included; (b) decodeJobSpec returns the spec and the error
// text encoding/json alone returns. It reports whether the fast path took it.
func checkDecode(t testing.TB, data []byte) bool {
	t.Helper()
	var want JobSpec
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	s := usedScratch(t)
	fast, took := s.decodeFast(data)
	if took && wantErr != nil {
		t.Fatalf("the fast path accepted %q, encoding/json says %v", data, wantErr)
	}
	if took && !reflect.DeepEqual(fast, want) {
		t.Fatalf("the fast path decoded %q\n into %#v\nwant %#v", data, fast, want)
	}
	got, err := s.decodeJobSpec(data)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("decodeJobSpec(%q) error = %v, encoding/json says %v", data, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeJobSpec(%q)\n   = %#v\nwant %#v", data, got, want)
	}
	return took
}

func TestDecodeJobSpecMatchesEncodingJSON(t *testing.T) {
	for _, body := range clientBodies(t) {
		if !checkDecode(t, body) {
			t.Errorf("the fast path declined a body a client sends: %s", body)
		}
	}
	took := 0
	odd := oddBodies()
	for _, body := range odd {
		if checkDecode(t, []byte(body)) {
			took++
		}
	}
	t.Logf("the fast path took %d of %d odd bodies", took, len(odd))
	for _, body := range []string{oneValidBody, `{}`, reversedBody, spacedBody, paddedSpec(4096, 300)} {
		if !checkDecode(t, []byte(body)) {
			t.Errorf("the fast path declined %s", body)
		}
	}
}

func FuzzDecodeJobSpecMatchesEncodingJSON(f *testing.F) {
	for _, body := range clientBodies(f) {
		f.Add(body)
	}
	for _, body := range oddBodies() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data) })
}

var (
	codecFloats = []float64{0, math.Copysign(0, -1), 1, -1, 1234.5, 1e21, 1e20, 999999999999999900000, 1e22, -1e21, 1e-6, 1e-7, 9.99e-7, 1e-8, -1e-9,
		5e-324, math.MaxFloat64, -math.MaxFloat64, 1e100, 1.5e-10, 1e-100, 123456789.125, 0.1, 1.0 / 3, math.NaN(), math.Inf(1), math.Inf(-1)}
	codecNames = []string{"", "j", "bg-12", "default", `<>&"\`, "a<b", "a>b", "a&b", `q"q`, `b\s`, "line\u2028sep", "para\u2029sep", "bad\xffutf8", "\xc3", "tab\there",
		"nul\x00", "del\x7f", "日本語", "é", " spaced out ", "~tilde~", "{[", "ends{", "ends["}
)

// fuzzSource deals values for the encoder checks out of fuzz bytes: small
// bytes pick from the tables of awkward floats and names, the rest are used
// raw.
type fuzzSource struct{ b []byte }

func (f *fuzzSource) byte() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

func (f *fuzzSource) int() int { return int(int8(f.byte())) * int(f.byte()) * int(f.byte()) }

func (f *fuzzSource) float() float64 {
	k := int(f.byte())
	if k < len(codecFloats) {
		return codecFloats[k]
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(f.byte())
	}
	return math.Float64frombits(bits)
}

func (f *fuzzSource) str() string {
	k := int(f.byte())
	if k < len(codecNames) {
		return codecNames[k]
	}
	n := min(k%24, len(f.b))
	s := string(f.b[:n])
	f.b = f.b[n:]
	return s
}

func (f *fuzzSource) status() JobStatus {
	st := JobStatus{
		ID: int64(f.int()), Name: f.str(), State: f.str(), Priority: f.int(),
		SubmittedMs: f.float(), FinishedMs: f.float(), JCTMs: f.float(),
		PhasesDone: f.int(), NumPhases: f.int(), RunningSlots: f.int(), ReservedIdle: f.int(), TasksRun: f.int(),
		CopiesLaunched: f.int(), CopiesWon: f.int(), Shard: f.int(), BorrowedSlots: f.int(), RemoteTasks: f.int(),
		Tenant: f.str(),
	}
	switch f.byte() % 4 {
	case 1:
		st.Phases = []PhaseStatus{}
	case 2:
		st.Phases = []PhaseStatus{{ID: f.int(), TasksDone: f.int(), Tasks: f.int(), Running: f.int(), DeadlineMs: f.float()}}
	case 3:
		for i := 0; i < 3; i++ {
			st.Phases = append(st.Phases, PhaseStatus{ID: i, TasksDone: f.int(), Tasks: f.int(), Running: f.int(), DeadlineMs: f.float()})
		}
	}
	return st
}

func (f *fuzzSource) list() JobList {
	var list JobList
	switch f.byte() % 4 {
	case 1:
		list.Jobs = []JobStatus{}
	case 2:
		list.Jobs = []JobStatus{f.status()}
	case 3:
		list.Jobs = []JobStatus{f.status(), f.status(), f.status()}
	}
	if f.byte()%2 == 1 {
		list.NextAfter = int64(f.int())
	}
	return list
}

func (f *fuzzSource) event() Event {
	return Event{Seq: uint64(f.int()), TimeMs: f.float(), Type: f.str(), Job: int64(f.int()), JobName: f.str(),
		Phase: f.int(), Task: f.int(), Slot: f.int(), Shard: f.int(), Count: f.int(), Copy: f.byte()%2 == 1, Local: f.byte()%2 == 1}
}

// checkEncode holds the three encoders to theirs: a JobStatus and a JobList
// leave the scratch as the bytes (status line and Content-Type included)
// writeJSON sends, and an SSE frame is the bytes the Marshal-and-Fprintf
// framing wrote — a value encoding/json refuses included.
func checkEncode(t testing.TB, st JobStatus, list JobList, ev Event) {
	t.Helper()
	s := new(scratch)
	same := func(what string, got, want *httptest.ResponseRecorder) {
		t.Helper()
		if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: wrote %d %v\n%q\nwriteJSON writes %d %v\n%q", what,
				got.Code, got.Header(), got.Body.Bytes(), want.Code, want.Header(), want.Body.Bytes())
		}
	}
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	s.writeJobStatus(got, http.StatusCreated, &st)
	writeJSON(want, http.StatusCreated, st)
	same(fmt.Sprintf("status %+v", st), got, want)

	got, want = httptest.NewRecorder(), httptest.NewRecorder()
	s.writeJobList(got, http.StatusOK, &list)
	writeJSON(want, http.StatusOK, list)
	same(fmt.Sprintf("list %+v", list), got, want)

	var wantFrame []byte
	data, wantErr := json.Marshal(ev)
	if wantErr == nil {
		wantFrame = []byte(fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data))
	}
	frame, err := appendSSE([]byte("stale"), &ev)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("appendSSE(%+v) error = %v, json.Marshal says %v", ev, err, wantErr)
	}
	if err == nil && !bytes.Equal(frame, append([]byte("stale"), wantFrame...)) {
		t.Fatalf("appendSSE(%+v)\n   = %q\nwant %q", ev, frame, wantFrame)
	}
}

// encodeSeeds deals every table entry into every field at once (byte k
// repeated; k mod 4 and k mod 2 walk the phase and list counts and nextAfter),
// then the raw-bytes paths.
func encodeSeeds() [][]byte {
	var seeds [][]byte
	for k := 0; k < max(len(codecFloats), len(codecNames)); k++ {
		seeds = append(seeds, bytes.Repeat([]byte{byte(k)}, 200))
	}
	return append(seeds, nil, bytes.Repeat([]byte{0xff}, 400), bytes.Repeat([]byte{0x80, 0x41, 0x3c}, 100))
}

func checkEncodeSeed(t testing.TB, data []byte) {
	t.Helper()
	f := &fuzzSource{b: data}
	checkEncode(t, f.status(), f.list(), f.event())
}

func TestAppendJobStatusMatchesEncodingJSON(t *testing.T) {
	for _, seed := range encodeSeeds() {
		checkEncodeSeed(t, seed)
	}
	// One table entry per field in turn, the rest plain: a fallback in one
	// field must not hide a mismatch in another.
	plain := JobStatus{ID: 7, Name: "fg-4", State: StateRunning, Priority: 10, SubmittedMs: 12.5, NumPhases: 3, Tenant: "default",
		Phases: []PhaseStatus{{ID: 1, TasksDone: 2, Tasks: 6, Running: 4, DeadlineMs: -1}}}
	for _, v := range codecFloats {
		for field := 0; field < 4; field++ {
			st := plain
			st.Phases = append([]PhaseStatus(nil), plain.Phases...)
			*[]*float64{&st.SubmittedMs, &st.FinishedMs, &st.JCTMs, &st.Phases[0].DeadlineMs}[field] = v
			checkEncode(t, st, JobList{Jobs: []JobStatus{plain, st}, NextAfter: 9}, Event{Seq: 1, TimeMs: v, Type: "job_start"})
		}
	}
	for _, v := range codecNames {
		for field := 0; field < 3; field++ {
			st := plain
			*[]*string{&st.Name, &st.State, &st.Tenant}[field] = v
			checkEncode(t, st, JobList{Jobs: []JobStatus{st}}, Event{Seq: 2, Type: "job_done", JobName: v})
		}
	}
}

func FuzzAppendJobStatusMatchesEncodingJSON(f *testing.F) {
	for _, seed := range encodeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkEncodeSeed(t, data) })
}

// TestSSEFrameGolden: every lifecycle event type, with and without its
// optional fields, is framed byte for byte as before.
func TestSSEFrameGolden(t *testing.T) {
	for typ := driver.EventJobStart; typ <= driver.EventNodeUp+1; typ++ {
		bare := Event{Seq: uint64(typ), TimeMs: 1500.25, Type: typ.String(), Job: 42, Phase: 1, Task: 2, Slot: 3}
		full := bare
		full.JobName, full.Shard, full.Count, full.Copy, full.Local = "fg-42", 2, 5, true, true
		checkEncode(t, JobStatus{}, JobList{}, bare)
		checkEncode(t, JobStatus{}, JobList{}, full)
	}
	frame, err := appendSSE(nil, &Event{Seq: 9, TimeMs: 2000, Type: "job_done", Job: 3, JobName: "x", Slot: -1, Copy: true})
	want := "id: 9\nevent: job_done\ndata: {\"seq\":9,\"timeMs\":2000,\"type\":\"job_done\",\"job\":3,\"jobName\":\"x\",\"phase\":0,\"task\":0,\"slot\":-1,\"copy\":true}\n\n"
	if err != nil || string(frame) != want {
		t.Errorf("appendSSE = %q, %v\nwant %q", frame, err, want)
	}
}

// postJSON posts one body and decodes the 201 reply.
func postJSON(t testing.TB, h http.Handler, body []byte) JobStatus {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusCreated {
		t.Fatalf("POST /v1/jobs: %d %s (%v)", rec.Code, rec.Body.Bytes(), err)
	}
	return st
}

// admittedSpec reads a live job's DAG back off its shard loop, as a spec.
func admittedSpec(t testing.TB, svc *Service, id int64) JobSpec {
	t.Helper()
	var (
		spec  JobSpec
		found bool
	)
	if err := svc.Call(func(d *driver.Driver) {
		if res, ok := d.Result(dag.JobID(id)); ok {
			spec, found = SpecOf(res.Job), true
		}
	}); err != nil || !found {
		t.Errorf("job %d is not on its shard: found %v, err %v", id, found, err)
	}
	return spec
}

// specAsAdmitted is what admittedSpec reads back for a job posted as spec.
func specAsAdmitted(t testing.TB, spec JobSpec) JobSpec {
	if spec.Tenant == "" {
		spec.Tenant = tenant.Default
	}
	job, err := spec.build(1, 0)
	if err != nil {
		t.Error(err)
		return JobSpec{}
	}
	return SpecOf(job)
}

// TestPooledSpecDoesNotLeakIntoTheNextJob: a three-phase spec with deps, copy
// durations and demand, then on the same goroutine — so out of the same
// scratch — a one-phase spec with none of them. The second job has none of
// the first's.
func TestPooledSpecDoesNotLeakIntoTheNextJob(t *testing.T) {
	s := usedScratch(t)
	spec, err := s.decodeJobSpec([]byte(`{"name":"after","phases":[{"durationsMs":[5]}]}`))
	want := JobSpec{Name: "after", Phases: []PhaseSpec{{DurationsMs: []float64{5}}}}
	if err != nil || !reflect.DeepEqual(spec, want) {
		t.Errorf("second spec out of a used scratch = %#v, %v\nwant %#v", spec, err, want)
	}

	svc := newTestService(t, Config{Nodes: 16, SlotsPerNode: 2, Dilation: 1, Driver: ssrOptions()})
	h := NewHandler(svc)
	first := JobSpec{Name: "first", Priority: 9, ParallelismKnown: true, Tenant: "t1", Phases: []PhaseSpec{
		{DurationsMs: []float64{60000, 61000, 62000}, CopyDurationsMs: []float64{1000, 2000, 3000}, Demand: 1},
		{DurationsMs: []float64{63000, 64000}, CopyDurationsMs: []float64{4000, 5000}, Deps: []int{0}, Demand: 1},
		{DurationsMs: []float64{65000}, CopyDurationsMs: []float64{6000}, Deps: []int{0, 1}, Demand: 1},
	}}
	second := JobSpec{Name: "second", Priority: 1, Class: "background", Phases: []PhaseSpec{{DurationsMs: []float64{70000, 71000}}}}
	for _, spec := range []JobSpec{first, second, first, second} {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		st := postJSON(t, h, body)
		if st.Name != spec.Name || st.NumPhases != len(spec.Phases) || st.Priority != spec.Priority {
			t.Errorf("reply to %q: %+v", spec.Name, st)
		}
		if got, want := admittedSpec(t, svc, st.ID), specAsAdmitted(t, spec); !reflect.DeepEqual(got, want) {
			t.Errorf("job %q was admitted as\n     %+v\nwant %+v", spec.Name, got, want)
		}
	}
}

// TestConcurrentPostsKeepTheirOwnSpecs: eight connections post distinct specs
// through one server and one pool; every reply, and every admitted job's task
// durations, are the poster's own. Run under -race -count=10.
func TestConcurrentPostsKeepTheirOwnSpecs(t *testing.T) {
	const posters, each = 8, 500
	svc := newTestService(t, Config{Nodes: 2, SlotsPerNode: 2, Dilation: 1, BaselineWorkers: -1, Driver: ssrOptions()})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	specOf := func(g, i int) JobSpec {
		spec := JobSpec{Name: fmt.Sprintf("p%d-%d", g, i), Priority: 1 + (g+i)%9}
		for ph := 0; ph <= (g+i)%3; ph++ {
			p := PhaseSpec{}
			for k := 0; k <= (i+ph)%4; k++ {
				p.DurationsMs = append(p.DurationsMs, float64(100000*(g+1)+10*i+ph)+float64(k)/4)
			}
			if i%2 == 1 {
				for range p.DurationsMs {
					p.CopyDurationsMs = append(p.CopyDurationsMs, float64(200000*(g+1)+i))
				}
			}
			if ph > 0 {
				p.Deps = []int{ph - 1}
			}
			spec.Phases = append(spec.Phases, p)
		}
		return spec
	}
	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				spec := specOf(g, i)
				body, err := json.Marshal(spec)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				reply, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				var st JobStatus
				if jerr := json.Unmarshal(reply, &st); err != nil || jerr != nil || resp.StatusCode != http.StatusCreated {
					t.Errorf("POST %s: %d %s (%v, %v)", spec.Name, resp.StatusCode, reply, err, jerr)
					return
				}
				if st.Name != spec.Name || st.Tenant != tenant.Default || st.Priority != spec.Priority || st.NumPhases != len(spec.Phases) {
					t.Errorf("reply to %s is someone else's: %+v", spec.Name, st)
				}
				if got, want := admittedSpec(t, svc, st.ID), specAsAdmitted(t, spec); !reflect.DeepEqual(got, want) {
					t.Errorf("job %s was admitted as\n     %+v\nwant %+v", spec.Name, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBodyAtTheLimit: a body of exactly maxBodyBytes is read to its last byte
// and admitted (one byte more is the 413 row of TestHandlerErrorEnvelope).
func TestBodyAtTheLimit(t *testing.T) {
	svc := newTestService(t, Config{Nodes: 2, SlotsPerNode: 2, Dilation: 200})
	if st := postJSON(t, NewHandler(svc), []byte(paddedSpec(maxBodyBytes, 2))); st.Name != "big" || st.NumPhases != 1 {
		t.Errorf("a body of exactly the limit was admitted as %+v", st)
	}
}

// TestOversizedScratchIsNotPooled: one large but legal spec grows a scratch
// past maxPooledBytes; the scratch the next request gets is not that one.
func TestOversizedScratchIsNotPooled(t *testing.T) {
	const tasks = maxPooledBytes/8 + 1
	big := paddedSpec(3*tasks, tasks)
	grown := func(s *scratch) bool {
		return s.body.Cap() > maxPooledBytes || 8*cap(s.floats) > maxPooledBytes
	}
	for i := 0; i < 20; i++ { // a sync.Pool may drop or steal; twenty clean Gets are not luck
		s := getScratch()
		if grown(s) {
			t.Fatalf("Get %d returned a scratch with a %d-byte body buffer and %d floats", i, s.body.Cap(), cap(s.floats))
		}
		s.body.Reset()
		s.body.WriteString(big)
		spec, err := s.decodeJobSpec(s.body.Bytes())
		if err != nil || len(spec.Phases) != 1 || len(spec.Phases[0].DurationsMs) != tasks {
			t.Fatalf("decode of a %d-task spec: %d phases, %v", tasks, len(spec.Phases), err)
		}
		if !grown(s) {
			t.Fatalf("a %d-task spec left the scratch at %d body bytes, %d floats", tasks, s.body.Cap(), cap(s.floats))
		}
		s.release()
	}
	// A scratch of ordinary size does go back (where the pool keeps anything:
	// under the race detector it drops a quarter of what it is given).
	s := getScratch()
	s.release()
	if s2 := getScratch(); s2 != s && !raceEnabled {
		t.Error("an ordinary scratch was not pooled")
	}
}
