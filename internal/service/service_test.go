package service

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/stats"
)

// tinySpec is a 2-phase workflow small enough that hundreds of them drain
// in seconds of virtual time: 3 tasks of 120ms, then 2 of 60ms.
func tinySpec(name string, prio int) JobSpec {
	return JobSpec{
		Name:     name,
		Priority: prio,
		Phases: []PhaseSpec{
			{DurationsMs: []float64{120, 120, 120}},
			{DurationsMs: []float64{60, 60}, Deps: []int{0}},
		},
	}
}

func ssrOptions() driver.Options {
	return driver.Options{
		Mode: driver.ModeSSR,
		SSR:  core.Config{Enabled: true, IsolationP: 0.9, Alpha: 1.6, PreReserveThreshold: 0.5},
	}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func TestJobSpecValidate(t *testing.T) {
	bad := []JobSpec{
		{},
		{Name: "x"},
		{Name: "x", Phases: []PhaseSpec{{}}},
		{Name: "x", Phases: []PhaseSpec{{DurationsMs: []float64{-1}}}},
		{Name: "x", Phases: []PhaseSpec{{DurationsMs: []float64{1}, Deps: []int{5}}}},
		{Name: "x", Phases: []PhaseSpec{{DurationsMs: []float64{1}, CopyDurationsMs: []float64{1, 2}}}},
		{Name: "x", Class: "interactive", Phases: []PhaseSpec{{DurationsMs: []float64{1}}}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d should fail validation: %+v", i, spec)
		}
	}
	if err := tinySpec("ok", 5).Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestSpecOfRoundTrip(t *testing.T) {
	orig := tinySpec("round", 7)
	orig.Class = "background"
	orig.ParallelismKnown = true
	job, err := orig.build(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	back := SpecOf(job)
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped spec invalid: %v", err)
	}
	if back.Name != orig.Name || back.Priority != orig.Priority ||
		back.Class != orig.Class || back.ParallelismKnown != orig.ParallelismKnown {
		t.Errorf("round trip lost job fields: %+v", back)
	}
	if len(back.Phases) != 2 || len(back.Phases[0].DurationsMs) != 3 ||
		back.Phases[0].DurationsMs[0] != 120 || len(back.Phases[1].Deps) != 1 {
		t.Errorf("round trip lost phase structure: %+v", back.Phases)
	}
	if _, err := back.build(4, 0); err != nil {
		t.Errorf("round-tripped spec does not build: %v", err)
	}
}

// TestJobSpecBuildSetsJobAttributes pins what build copies from the spec onto
// the dag.Job now that it assigns the fields itself instead of passing dag's
// With* options.
func TestJobSpecBuildSetsJobAttributes(t *testing.T) {
	for _, tc := range []struct {
		class     string
		wantClass dag.Class
		tenant    string
		known     bool
	}{
		{class: "", wantClass: dag.Foreground},
		{class: "foreground", wantClass: dag.Foreground, tenant: "acme", known: true},
		{class: "background", wantClass: dag.Background},
		{class: "background", wantClass: dag.Background, tenant: "batch-1", known: true},
	} {
		spec := tinySpec("attrs", 7)
		spec.Class, spec.Tenant, spec.ParallelismKnown = tc.class, tc.tenant, tc.known
		job, err := spec.build(42, 90*time.Second)
		if err != nil {
			t.Fatalf("%+v: build: %v", tc, err)
		}
		if job.ID != 42 || job.Name != "attrs" || job.Priority != 7 {
			t.Errorf("%+v: identity = %d %q %d", tc, job.ID, job.Name, job.Priority)
		}
		if job.Submit != 90*time.Second || job.Class != tc.wantClass ||
			job.ParallelismKnown != tc.known || job.Tenant != tc.tenant {
			t.Errorf("%+v: built Submit=%v Class=%v ParallelismKnown=%v Tenant=%q",
				tc, job.Submit, job.Class, job.ParallelismKnown, job.Tenant)
		}
	}
}

// TestBuiltJobDoesNotAliasItsSpec: build converts straight into the job's own
// blocks, so a caller that reuses or rewrites its spec changes nothing in a
// job already admitted.
func TestBuiltJobDoesNotAliasItsSpec(t *testing.T) {
	mk := func() JobSpec {
		return JobSpec{Name: "alias", Priority: 3, Phases: []PhaseSpec{
			{DurationsMs: []float64{10, 20}, CopyDurationsMs: []float64{30, 40}},
			{DurationsMs: []float64{50}, Deps: []int{0, 0}, Demand: 2},
			{DurationsMs: []float64{60, 70}, Deps: []int{1, 0}},
		}}
	}
	spec := mk()
	job, err := spec.build(1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Phases {
		ph := &spec.Phases[i]
		for k := range ph.DurationsMs {
			ph.DurationsMs[k] = -1
		}
		for k := range ph.CopyDurationsMs {
			ph.CopyDurationsMs[k] = -1
		}
		for k := range ph.Deps {
			ph.Deps[k] = 99
		}
		*ph = PhaseSpec{}
	}
	if got, want := SpecOf(job), SpecOf(mustBuild(t, mk())); !reflect.DeepEqual(got, want) {
		t.Errorf("job changed with its spec:\n got %+v\nwant %+v", got, want)
	}
	if got := job.Phase(1).Deps; len(got) != 1 || got[0] != 0 || job.Phase(0).Tasks[1].CopyDuration != 40*time.Millisecond {
		t.Errorf("built job: phase 1 deps %v, phase 0 task 1 copy %v", got, job.Phase(0).Tasks[1].CopyDuration)
	}
}

func mustBuild(t *testing.T, spec JobSpec) *dag.Job {
	t.Helper()
	job, err := spec.build(1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestDurationsThatDoNotFitAreRefused: a wire duration that is not a
// positive number, does not fit a time.Duration, or brings the job's total
// serial work past one is refused by name at admission. Before, 5e12 twice
// was admitted with a serial work of minus 267 years, and 1e16 was refused
// only because amd64 happens to convert it to a negative number.
func TestDurationsThatDoNotFitAreRefused(t *testing.T) {
	svc := newTestService(t, Config{Nodes: 1, SlotsPerNode: 2, Dilation: 1e6})
	// The largest wire value whose nanoseconds still round below 2^63.
	largest := math.Nextafter(math.MaxInt64/1e6, 0)
	for largest*1e6 >= math.MaxInt64 {
		largest = math.Nextafter(largest, 0)
	}
	one := func(ms ...float64) []PhaseSpec { return []PhaseSpec{{DurationsMs: ms}} }
	for _, tc := range []struct {
		name    string
		phases  []PhaseSpec
		wantErr string // "" admits
	}{
		{"NaN", one(math.NaN()), `job "x" phase 0 has a non-positive task duration`},
		{"-Inf", one(math.Inf(-1)), `job "x" phase 0 has a non-positive task duration`},
		{"+Inf", one(math.Inf(1)), `job "x" phase 0 has a task duration too large`},
		{"1e16", one(1e16), `job "x" phase 0 has a task duration too large`},
		{"9.3e12", one(9.3e12), `job "x" phase 0 has a task duration too large`},
		{"just past the largest", one(math.Nextafter(largest, math.Inf(1))), `phase 0 has a task duration too large`},
		{"two tasks that overflow together", one(5e12, 5e12), `job "x" is too large: its total task duration overflows at phase 0`},
		{"two phases that overflow together", []PhaseSpec{{DurationsMs: []float64{5e12}}, {DurationsMs: []float64{1, 5e12}, Deps: []int{0}}},
			`job "x" is too large: its total task duration overflows at phase 1`},
		{"copy NaN", []PhaseSpec{{DurationsMs: []float64{1}, CopyDurationsMs: []float64{math.NaN()}}}, `job "x" phase 0 has a non-positive copy duration`},
		{"copy 1e16", []PhaseSpec{{DurationsMs: []float64{1}, CopyDurationsMs: []float64{1e16}}}, `job "x" phase 0 has a copy duration too large`},
		{"the largest that fits", one(largest), ""},
		{"the largest that fits, as a copy", []PhaseSpec{{DurationsMs: []float64{1}, CopyDurationsMs: []float64{largest}}}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := JobSpec{Name: "x", Priority: 1, Phases: tc.phases}
			if tc.wantErr != "" {
				// Through Submit: NaN and the infinities have no JSON form.
				if _, err := svc.Submit(spec); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Submit: %v, want an error containing %q", err, tc.wantErr)
				}
				return
			}
			// Validated and built but not run: the job would hold a slot
			// for 292 virtual years.
			if err := spec.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			job := mustBuild(t, spec)
			if work := job.SerialWork(); work <= 0 || job.Phase(0).Tasks[0].CopyDuration <= 0 {
				t.Errorf("admitted job has serial work %v, copy duration %v", work, job.Phase(0).Tasks[0].CopyDuration)
			}
		})
	}
}

// TestJobTaskCapIsExplicit: a job of maxJobTasks tasks, counted over all its
// phases, gets past validation; one more task is refused by name, and the
// handler answers that as a 400 invalid_argument.
func TestJobTaskCapIsExplicit(t *testing.T) {
	svc := newTestService(t, Config{Nodes: 1, SlotsPerNode: 1, Dilation: 1e6, BaselineWorkers: -1})
	// Draining, Submit refuses a valid job with ErrDraining instead of running
	// its million tasks.
	if _, err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	durations := make([]float64, maxJobTasks+1)
	for i := range durations {
		durations[i] = 1
	}
	half := maxJobTasks / 2
	for _, tc := range []struct {
		name    string
		tasks   int
		wantErr string
	}{
		{"at the cap", maxJobTasks, ErrDraining.Error()},
		{"one past it", maxJobTasks + 1, `service: job "x" is too large: more than 1048576 tasks at phase 1`},
	} {
		spec := JobSpec{Name: "x", Phases: []PhaseSpec{
			{DurationsMs: durations[:half]},
			{DurationsMs: durations[half:tc.tasks], Deps: []int{0}},
		}}
		_, err := svc.Submit(spec)
		if err == nil || err.Error() != tc.wantErr {
			t.Fatalf("%s: Submit: %v, want %q", tc.name, err, tc.wantErr)
		}
		if tc.tasks > maxJobTasks {
			rec := httptest.NewRecorder()
			writeError(rec, http.StatusBadRequest, err)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"code": "invalid_argument"`) {
				t.Errorf("%s: replied %d %s", tc.name, rec.Code, rec.Body.String())
			}
		}
	}
}

// TestMeanSlowdownIsARunningMean: the autoscaler's trigger, evaluated on the
// shard loop every tick, neither copies nor sorts the slowdown history, and
// agrees with the mean the metrics view computes from the sorted copy.
func TestMeanSlowdownIsARunningMean(t *testing.T) {
	s := new(Service)
	if got := s.meanSlowdown(); got != 0 || s.slowdownStats().Mean != 0 {
		t.Errorf("no slowdowns: meanSlowdown %v, slowdownStats %+v", got, s.slowdownStats())
	}
	rng := stats.SubStream(606, "mean-slowdown-test", 0)
	dist := stats.Pareto{Alpha: 1.6, Xm: 1}
	s.sdMu.Lock()
	for i := 0; i < 10000; i++ {
		s.addSlowdownLocked(dist.Sample(rng))
	}
	s.sdMu.Unlock()
	if got, want := s.meanSlowdown(), s.slowdownStats().Mean; math.Abs(got-want) > 1e-12*want {
		t.Errorf("meanSlowdown %v, slowdownStats().Mean %v", got, want)
	}
	if raceEnabled {
		return // allocation counts under the race detector measure the detector
	}
	if allocs := testing.AllocsPerRun(100, func() { s.meanSlowdown() }); allocs != 0 {
		t.Errorf("meanSlowdown over 10k slowdowns allocates %v times, want 0", allocs)
	}
}

// checkWireCausalOrder validates the SSE stream contract: sequence numbers
// strictly increase, virtual time never goes backwards, and per job the
// stream embeds the causal partial order (job_start < phase_start <
// attempt_start < attempt_finish/kill < phase_done < job_done/job_fail).
func checkWireCausalOrder(t *testing.T, events []Event) {
	t.Helper()
	type jobState struct {
		started    bool
		done       bool
		phaseOpen  map[int]bool
		phaseDone  map[int]bool
		attemptsIn map[[3]int]bool
	}
	jobs := make(map[int64]*jobState)
	get := func(id int64) *jobState {
		js := jobs[id]
		if js == nil {
			js = &jobState{
				phaseOpen:  make(map[int]bool),
				phaseDone:  make(map[int]bool),
				attemptsIn: make(map[[3]int]bool),
			}
			jobs[id] = js
		}
		return js
	}
	var lastSeq uint64
	var lastT float64
	for i, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("event %d: seq %d not above previous %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.TimeMs < lastT {
			t.Fatalf("event %d: time %vms before previous %vms", i, ev.TimeMs, lastT)
		}
		lastT = ev.TimeMs
		js := get(ev.Job)
		if js.done && ev.Type != "unreserve" {
			t.Fatalf("event %d: %s for job %d after its terminal event", i, ev.Type, ev.Job)
		}
		key := [3]int{ev.Phase, ev.Task, 0}
		if ev.Copy {
			key[2] = 1
		}
		switch ev.Type {
		case "job_start":
			if js.started {
				t.Fatalf("event %d: duplicate job_start for job %d", i, ev.Job)
			}
			js.started = true
		case "phase_start":
			if !js.started {
				t.Fatalf("event %d: phase_start before job_start (job %d)", i, ev.Job)
			}
			if js.phaseOpen[ev.Phase] || js.phaseDone[ev.Phase] {
				t.Fatalf("event %d: duplicate phase_start %d (job %d)", i, ev.Phase, ev.Job)
			}
			js.phaseOpen[ev.Phase] = true
		case "attempt_start":
			if !js.phaseOpen[ev.Phase] {
				t.Fatalf("event %d: attempt_start in unopened phase %d (job %d)", i, ev.Phase, ev.Job)
			}
			if js.attemptsIn[key] {
				t.Fatalf("event %d: duplicate attempt_start %v (job %d)", i, key, ev.Job)
			}
			js.attemptsIn[key] = true
		case "attempt_finish", "attempt_kill":
			if !js.attemptsIn[key] {
				t.Fatalf("event %d: %s without attempt_start %v (job %d)", i, ev.Type, key, ev.Job)
			}
			delete(js.attemptsIn, key)
		case "phase_done":
			if !js.phaseOpen[ev.Phase] {
				t.Fatalf("event %d: phase_done for unopened phase %d (job %d)", i, ev.Phase, ev.Job)
			}
			js.phaseOpen[ev.Phase] = false
			js.phaseDone[ev.Phase] = true
		case "job_done", "job_fail":
			js.done = true
		}
	}
}

// TestServiceEndToEnd is the acceptance run: 100 jobs submitted
// concurrently over HTTP against a dilated service, every one reaching a
// terminal state; the SSE stream respects per-job causal order; the
// /metrics view agrees with the in-process metrics.SlotUsage integrator.
func TestServiceEndToEnd(t *testing.T) {
	const jobs = 100
	cfg := Config{
		Nodes:        8,
		SlotsPerNode: 2,
		Dilation:     500,
		Driver:       ssrOptions(),
		RecordTrace:  true,
	}
	svc := newTestService(t, cfg)
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	cli := NewClient(ts.URL)

	// Stream events from the start; stop once every job is terminal.
	streamCtx, stopStream := context.WithCancel(context.Background())
	defer stopStream()
	var (
		evMu     sync.Mutex
		events   []Event
		terminal int
	)
	streamDone := make(chan error, 1)
	go func() {
		// A subscriber that falls a whole buffer behind the bus is dropped
		// and its stream ends; like any client, resume after the last event.
		var next uint64
		for {
			err := cli.StreamEvents(streamCtx, next, func(ev Event) error {
				next = ev.Seq + 1
				evMu.Lock()
				events = append(events, ev)
				if ev.Type == "job_done" || ev.Type == "job_fail" {
					terminal++
					if terminal == jobs {
						stopStream()
					}
				}
				evMu.Unlock()
				return nil
			})
			if err != nil || streamCtx.Err() != nil {
				streamDone <- err
				return
			}
		}
	}()

	// Submit concurrently from several client goroutines.
	const submitters = 10
	ids := make(chan int64, jobs)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < jobs/submitters; i++ {
				st, err := cli.Submit(context.Background(),
					tinySpec("load", 1+(g+i)%5))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids <- st.ID
			}
		}(g)
	}
	wg.Wait()
	close(ids)
	seen := make(map[int64]bool)
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job ID %d assigned", id)
		}
		seen[id] = true
	}
	if len(seen) != jobs {
		t.Fatalf("submitted %d jobs, want %d", len(seen), jobs)
	}

	// Wait for every job to reach a terminal state.
	deadline := time.Now().Add(30 * time.Second)
	for {
		list, err := cli.Jobs(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		done := 0
		for _, st := range list {
			if TerminalState(st.State) {
				done++
			}
		}
		if done == jobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs terminal at deadline", done, jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-streamDone:
		if err != nil {
			t.Fatalf("event stream: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("event stream did not observe all terminal events")
	}

	evMu.Lock()
	stream := append([]Event(nil), events...)
	evMu.Unlock()
	checkWireCausalOrder(t, stream)
	starts, dones := 0, 0
	for _, ev := range stream {
		switch ev.Type {
		case "job_start":
			starts++
		case "job_done":
			dones++
		case "job_fail":
			t.Errorf("job %d failed during a failure-free run", ev.Job)
		}
	}
	if starts != jobs || dones != jobs {
		t.Errorf("stream has %d job_start / %d job_done, want %d/%d", starts, dones, jobs, jobs)
	}

	// Every job's wire status is complete and self-consistent.
	for id := range seen {
		st, err := cli.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCompleted || st.PhasesDone != 2 || st.TasksRun != 5 || st.JCTMs <= 0 {
			t.Errorf("job %d final status = %+v", id, st)
		}
	}

	// /metrics agrees with the in-process SlotUsage integrator. All jobs
	// are terminal, so busy/reserved integrals are frozen.
	var busySec, reservedSec float64
	if err := svc.Call(func(d *driver.Driver) {
		busySec = d.Usage().BusyTime().Seconds()
		reservedSec = d.Usage().ReservedIdleTime().Seconds()
	}); err != nil {
		t.Fatal(err)
	}
	ms, err := cli.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ms.BusySlotSec-busySec) > 1e-6 {
		t.Errorf("metrics busy slot-sec %v != SlotUsage %v", ms.BusySlotSec, busySec)
	}
	if math.Abs(ms.ReservedIdleSec-reservedSec) > 1e-6 {
		t.Errorf("metrics reserved-idle sec %v != SlotUsage %v", ms.ReservedIdleSec, reservedSec)
	}
	// Utilization was computed from the same integrator at snapshot time:
	// busy / (now * slots), within float rounding.
	wantUtil := ms.BusySlotSec / (ms.VirtualNowMs / 1000 * float64(ms.Slots))
	if ms.VirtualNowMs > 0 && math.Abs(ms.Utilization-wantUtil)/wantUtil > 1e-6 {
		t.Errorf("utilization %v inconsistent with busy %v over %vms x %d slots",
			ms.Utilization, ms.BusySlotSec, ms.VirtualNowMs, ms.Slots)
	}
	if ms.JobsSubmitted != jobs || ms.JobsCompleted != jobs || ms.JobsRunning != 0 || ms.JobsFailed != 0 {
		t.Errorf("metrics job counters = %+v", ms)
	}
	if ms.EventsPublished == 0 || ms.Draining {
		t.Errorf("metrics stream state = %+v", ms)
	}
	// 100 x 5 tasks ran; the trace recorder saw each attempt.
	if svc.Trace() == nil || svc.Trace().Len() < jobs*5 {
		t.Errorf("trace recorded %d attempts, want >= %d", svc.Trace().Len(), jobs*5)
	}
}

// TestServiceSlowdowns checks the out-of-band baseline pipeline produces
// slowdown statistics >= 1 for completed jobs.
func TestServiceSlowdowns(t *testing.T) {
	svc := newTestService(t, Config{
		Nodes:        2,
		SlotsPerNode: 2,
		Dilation:     500,
		Driver:       driver.Options{Mode: driver.ModeNone},
	})
	for i := 0; i < 8; i++ {
		if _, err := svc.Submit(tinySpec("sd", 1)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		ms, err := svc.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if ms.Slowdowns.Count+ms.Slowdowns.Dropped == 8 {
			if ms.Slowdowns.Count > 0 && (ms.Slowdowns.Mean < 1 || ms.Slowdowns.Max < ms.Slowdowns.P50) {
				t.Errorf("implausible slowdowns: %+v", ms.Slowdowns)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("baselines incomplete: %+v", ms.Slowdowns)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceDrain verifies the graceful-shutdown protocol: admission
// stops with ErrDraining (503 over HTTP), in-flight jobs get the drain
// grace, and whatever outlives it is aborted.
func TestServiceDrain(t *testing.T) {
	svc := newTestService(t, Config{
		Nodes:        2,
		SlotsPerNode: 2,
		Dilation:     50,
		Driver:       driver.Options{Mode: driver.ModeNone},
		RecordTrace:  true,
	})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	cli := NewClient(ts.URL)

	// Jobs long enough (20s virtual = 400ms real) to outlive the drain.
	long := JobSpec{Name: "long", Priority: 1, Phases: []PhaseSpec{
		{DurationsMs: []float64{20000, 20000}},
	}}
	for i := 0; i < 3; i++ {
		if _, err := cli.Submit(context.Background(), long); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until at least one job is running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ms, err := svc.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if ms.JobsRunning > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no job started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	type drainResult struct {
		aborted int
		err     error
	}
	drained := make(chan drainResult, 1)
	go func() {
		n, err := svc.Drain(ctx)
		drained <- drainResult{n, err}
	}()

	// While draining: new submissions are refused with 503.
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, err := cli.Submit(context.Background(), long)
		if IsUnavailable(err) {
			break
		}
		if err != nil {
			t.Fatalf("submit during drain: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never started refusing jobs")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ms, err := svc.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !ms.Draining {
		t.Error("metrics should report draining")
	}

	res := <-drained
	if res.err != nil {
		t.Fatalf("drain: %v", res.err)
	}
	if res.aborted == 0 {
		t.Error("drain deadline passed with nothing aborted; jobs should not have finished")
	}
	list, err := svc.ListPage(0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range list.Jobs {
		if !TerminalState(st.State) {
			t.Errorf("job %d state %q after drain, want terminal", st.ID, st.State)
		}
	}
	ms, err = svc.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if ms.JobsFailed != res.aborted {
		t.Errorf("JobsFailed = %d, drain aborted %d", ms.JobsFailed, res.aborted)
	}
	// The killed attempts reached the trace, ready for the shutdown flush.
	if svc.Trace().Len() == 0 {
		t.Error("trace empty after drain killed running attempts")
	}
}

// TestSubmitPendingAbort covers the corner where a drain aborts a job
// before its arrival timer fires: the activation must not resurrect it.
func TestSubmitPendingAbort(t *testing.T) {
	svc := newTestService(t, Config{
		Nodes:        1,
		SlotsPerNode: 1,
		Dilation:     100,
		Driver:       driver.Options{Mode: driver.ModeNone},
	})
	st, err := svc.Submit(JobSpec{Name: "p", Priority: 1,
		Phases: []PhaseSpec{{DurationsMs: []float64{5000}}}})
	if err != nil {
		t.Fatal(err)
	}
	var aborted bool
	if err := svc.Call(func(d *driver.Driver) {
		aborted = d.Abort(dag.JobID(st.ID)) == nil
	}); err != nil {
		t.Fatal(err)
	}
	if !aborted {
		t.Fatal("abort failed")
	}
	time.Sleep(20 * time.Millisecond)
	got, found, err := svc.Status(st.ID)
	if err != nil || !found {
		t.Fatalf("status: %v found=%v", err, found)
	}
	if got.State != StateFailed {
		t.Errorf("state = %q, want failed", got.State)
	}
}
