package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/stats"
)

// onlineMixSpec is job i of the 80/20 online mix the repository benchmark
// drives: four in five are one-phase background jobs, the fifth a three-phase
// (4 -> 6 -> 2) foreground job, task durations Pareto(1.6) around 8 virtual s.
func onlineMixSpec(i int) JobSpec {
	rng := stats.SubStream(606, "retire-test-mix", i)
	dist := stats.Pareto{Alpha: 1.6, Xm: 3}
	draw := func(n int) []float64 {
		out := make([]float64, n)
		for k := range out {
			out[k] = dist.Sample(rng) * 1000
			if out[k] > 120000 {
				out[k] = 120000
			}
		}
		return out
	}
	if i%5 == 4 {
		return JobSpec{Name: fmt.Sprintf("fg-%d", i), Priority: 10, Phases: []PhaseSpec{
			{DurationsMs: draw(4)},
			{DurationsMs: draw(6), Deps: []int{0}},
			{DurationsMs: draw(2), Deps: []int{1}},
		}}
	}
	return JobSpec{Name: fmt.Sprintf("bg-%d", i), Priority: 1, Class: "background",
		Phases: []PhaseSpec{{DurationsMs: draw(4)}}}
}

// TestRetentionGuard is the soak in miniature: what the service still holds
// per job once 20k jobs have come and gone must be the sinks' share and the
// bounded job history, not a record per job (0.113 KB while every 128 B
// jobEntry stayed, 0.207 when the entry embedded the wire JobStatus in 216 B,
// 0.237 when each entry also cost a map slot and an order slot) nor the jobs'
// runtime graphs (1.8 KB before finished work was retired). The newest job
// still answers; the first measured one has been evicted.
func TestRetentionGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting under the race detector measures the detector")
	}
	const warm, jobs = 5000, 20000
	svc := newTestService(t, Config{
		Nodes:           64,
		SlotsPerNode:    4,
		Dilation:        1e6,
		BaselineWorkers: -1,
		Driver:          ssrOptions(),
	})
	specs := make([]JobSpec, 1024)
	for i := range specs {
		specs[i] = onlineMixSpec(i)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	submit := func(from, n int) {
		for i := from; i < from+n; i++ {
			if _, err := svc.Submit(specs[i%len(specs)]); err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
		}
	}
	// The bus and audit rings, engine free lists and the job table's first
	// doublings fill during the warm-up and stay out of the measurement.
	submit(0, warm)
	waitTerminal(t, svc, warm)
	before := heap()
	submit(warm, jobs)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if aborted, err := svc.Drain(ctx); err != nil || aborted != 0 {
		t.Fatalf("Drain: aborted %d, err %v", aborted, err)
	}
	perJobKB := (float64(heap()) - float64(before)) / 1024 / jobs
	t.Logf("retained %.3f KB per finished job", perJobKB)
	if perJobKB >= 0.04 {
		t.Errorf("service retains %.3f KB per finished job, want < 0.04", perJobKB)
	}
	var known int
	if err := svc.Call(func(d *driver.Driver) { known = len(d.Results()) }); err != nil {
		t.Fatal(err)
	}
	if known != 0 {
		t.Errorf("driver still holds %d finished jobs the service retired", known)
	}
	if st, found, err := svc.Status(warm + jobs); err != nil || !found || st.State != StateCompleted || st.TasksRun == 0 {
		t.Errorf("the newest retired job no longer answers: %+v found=%v err=%v", st, found, err)
	}
	if st, found, err := svc.Status(warm + 1); found || !errors.Is(err, ErrGone) {
		t.Errorf("job %d, %d terminal jobs ago, answers %+v found=%v err=%v; want ErrGone", warm+1, jobs, st, found, err)
	}
}

// TestJobEntrySize: a finished job's whole residue in the service is one
// job-table slot of at most 128 bytes.
func TestJobEntrySize(t *testing.T) {
	if size := unsafe.Sizeof(jobEntry{}); size > 128 {
		t.Errorf("a jobEntry is %d bytes, want <= 128", size)
	}
}

// TestJobEntryRoundTrip: a wire status stored in a jobEntry renders back
// equal to itself, and encodes to the bytes writeJSON writes for the original
// — at the int32 edge of every count, at both ends of the unbounded priority,
// with and without the finish stamps and a phase list.
func TestJobEntryRoundTrip(t *testing.T) {
	// msOf(finish-submit) = 93500.000001, msOf(finish)-msOf(submit) one ulp more.
	const submit, finish = 1500*time.Millisecond + 7, 95*time.Second + 8
	done := JobStatus{ID: 42, Name: "fg-4", State: StateCompleted, Priority: 10, PhasesDone: 3, NumPhases: 3,
		TasksRun: 12, CopiesLaunched: 2, CopiesWon: 1, Tenant: "default"}
	for _, tc := range []struct {
		name           string
		edit           func(st *JobStatus)
		submit, finish time.Duration
		finished       bool
	}{
		{"completed", func(*JobStatus) {}, submit, finish, true},
		{"every count at MaxInt32", func(st *JobStatus) {
			for _, n := range []*int{&st.PhasesDone, &st.NumPhases, &st.RunningSlots, &st.ReservedIdle, &st.TasksRun,
				&st.CopiesLaunched, &st.CopiesWon, &st.Shard, &st.BorrowedSlots, &st.RemoteTasks} {
				*n = math.MaxInt32
			}
		}, submit, finish, true},
		{"negative priority", func(st *JobStatus) { st.Priority = -7 }, submit, finish, true},
		{"MaxInt priority", func(st *JobStatus) { st.Priority = math.MaxInt }, submit, finish, true},
		{"MinInt priority", func(st *JobStatus) { st.Priority = math.MinInt }, submit, finish, true},
		{"failed with its phases", func(st *JobStatus) {
			st.State, st.PhasesDone, st.RunningSlots, st.ReservedIdle = StateFailed, 1, 2, 1
			st.Phases = []PhaseStatus{{ID: 1, TasksDone: 1, Tasks: 3, Running: 2, DeadlineMs: -1}, {ID: 2, Tasks: 4, DeadlineMs: 61000.5}}
		}, submit, finish, true},
		{"terminal without a result", func(st *JobStatus) { st.State = StateFailed }, submit, 0, false},
		{"pending inside its hand-off", func(st *JobStatus) {
			*st = JobStatus{ID: 43, Name: "bg-0", State: StatePending, Priority: 1, NumPhases: 1, Tenant: "t1"}
		}, 0, 0, false},
		{"running on shard 3", func(st *JobStatus) {
			st.State, st.Shard, st.BorrowedSlots, st.RemoteTasks = StateRunning, 3, 2, 5
		}, submit, 0, false},
	} {
		want := done
		tc.edit(&want)
		want.SubmittedMs = msOf(tc.submit)
		if tc.finished {
			want.FinishedMs, want.JCTMs = msOf(tc.finish), msOf(tc.finish-tc.submit)
		}
		e := jobEntry{submit: tc.submit}
		e.set(&want, tc.finish, tc.finished)
		got := e.status(want.ID)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stored and rendered back\n%+v\nwant\n%+v", tc.name, got, want)
		}
		enc, ref := httptest.NewRecorder(), httptest.NewRecorder()
		new(scratch).writeJobStatus(enc, http.StatusOK, &got)
		writeJSON(ref, http.StatusOK, want)
		if !bytes.Equal(enc.Body.Bytes(), ref.Body.Bytes()) {
			t.Errorf("%s: encodes to\n%s\nwriteJSON of the original writes\n%s", tc.name, enc.Body.Bytes(), ref.Body.Bytes())
		}
	}
}

// expectedStatus rebuilds a job's wire status the way the service did before
// terminal jobs were retired — from the driver's own view of the job, read
// inside the terminal event, while the driver still has all of it.
func expectedStatus(d *driver.Driver, id dag.JobID, state string) JobStatus {
	p, _ := d.Progress(id)
	js, _ := d.Result(id)
	want := JobStatus{
		ID:             int64(id),
		Name:           js.Job.Name,
		State:          state,
		Tenant:         js.Job.Tenant,
		Priority:       int(js.Job.Priority),
		SubmittedMs:    msOf(js.Job.Submit),
		NumPhases:      js.Job.NumPhases(),
		PhasesDone:     p.PhasesDone,
		RunningSlots:   p.RunningSlots,
		ReservedIdle:   p.ReservedIdle,
		TasksRun:       js.TasksRun,
		CopiesLaunched: js.CopiesLaunched,
		CopiesWon:      js.CopiesWon,
		BorrowedSlots:  js.BorrowedSlots,
		RemoteTasks:    js.RemoteTasks,
		FinishedMs:     msOf(js.Finish),
		JCTMs:          msOf(js.JCT()),
	}
	for _, ph := range p.Phases {
		ps := PhaseStatus{ID: ph.ID, TasksDone: ph.TasksDone, Tasks: ph.Tasks, Running: ph.Running, DeadlineMs: -1}
		if ph.DeadlineAt >= 0 {
			ps.DeadlineMs = msOf(ph.DeadlineAt)
		}
		want.Phases = append(want.Phases, ps)
	}
	return want
}

// TestTerminalStatusGolden: the HTTP body of a completed job and of a
// drain-aborted job (which lists the phases the abort cut short) is byte for
// byte what the driver's pre-retirement view renders to, and terminal reads
// need no shard loop: they still answer after Close has stopped the runners.
func TestTerminalStatusGolden(t *testing.T) {
	var (
		mu   sync.Mutex
		drv  *driver.Driver
		want = map[int64][]byte{}
	)
	opts := ssrOptions()
	opts.OnEvent = func(ev driver.Event) {
		var state string
		switch ev.Type {
		case driver.EventJobDone:
			state = StateCompleted
		case driver.EventJobFail:
			state = StateFailed
		default:
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(expectedStatus(drv, ev.Job, state)); err != nil {
			t.Error(err)
		}
		mu.Lock()
		want[int64(ev.Job)] = buf.Bytes()
		mu.Unlock()
	}
	svc := newTestService(t, Config{Nodes: 2, SlotsPerNode: 2, Dilation: 200, Driver: opts})
	if err := svc.Call(func(d *driver.Driver) { drv = d }); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	body := func(id int64) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %d: %d %v", id, resp.StatusCode, err)
		}
		return b
	}

	done, err := svc.Submit(tinySpec("done", 5))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, 1)
	// 60 virtual s per task = 300 ms of wall clock: still in its first phase
	// when the drain's grace runs out.
	cut, err := svc.Submit(JobSpec{Name: "cut", Priority: 5, Phases: []PhaseSpec{
		{DurationsMs: []float64{1000, 60000, 60000}},
		{DurationsMs: []float64{1000}, Deps: []int{0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st, _, err := svc.Status(cut.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Phases) == 1 && st.Phases[0].TasksDone == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never got a task done: %+v", cut.ID, st)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if aborted, err := svc.Drain(ctx); err != nil || aborted != 1 {
		t.Fatalf("Drain: aborted %d, err %v", aborted, err)
	}

	check := func(when string) {
		t.Helper()
		for _, id := range []int64{done.ID, cut.ID} {
			mu.Lock()
			w := want[id]
			mu.Unlock()
			if got := body(id); !bytes.Equal(got, w) {
				t.Errorf("%s: job %d body\n%s\nwant the driver's pre-retirement view\n%s", when, id, got, w)
			}
		}
	}
	check("retired")
	var failed JobStatus
	if err := json.Unmarshal(want[cut.ID], &failed); err != nil {
		t.Fatal(err)
	}
	if failed.State != StateFailed || len(failed.Phases) != 1 || failed.Phases[0].Tasks != 3 || failed.Phases[0].Running != 0 {
		t.Errorf("aborted job's final status lost its phase list: %+v", failed)
	}

	svc.Close()
	check("after Close")
	page, err := svc.ListPage(10, 0, "")
	if err != nil || len(page.Jobs) != 2 || page.Jobs[1].State != StateFailed {
		t.Errorf("ListPage after Close = %+v, %v", page, err)
	}
}

// TestListPageDuringSubmitHandoff is the regression test for the daemon
// crash the benchmark found: a page that reaches a job whose Submit is still
// between publishing its entry and handing the DAG to the shard used to
// dereference a nil job on the shard loop. Such a job reads as pending.
func TestListPageDuringSubmitHandoff(t *testing.T) {
	svc := newTestService(t, Config{
		Nodes:           8,
		SlotsPerNode:    4,
		Dilation:        1e6,
		BaselineWorkers: -1,
		Driver:          driver.Options{Mode: driver.ModeNone},
	})
	const jobs = 3000
	var wg sync.WaitGroup
	wg.Add(1)
	newest := make(chan int64, 1)
	go func() {
		defer wg.Done()
		defer close(newest)
		for i := 0; i < jobs; i++ {
			st, err := svc.Submit(tinySpec("h", 1))
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			select {
			case newest <- st.ID:
			default:
			}
		}
	}()
	for id := range newest {
		page, err := svc.ListPage(100, id-50, "")
		if err != nil {
			t.Fatalf("ListPage: %v", err)
		}
		last := id - 50
		for _, st := range page.Jobs {
			if st.ID <= last || st.ID <= 0 || st.Name != "h" || st.NumPhases != 2 ||
				(st.State != StatePending && st.State != StateRunning && st.State != StateCompleted) {
				t.Fatalf("page after %d holds %+v", id-50, st)
			}
			last = st.ID
		}
		if _, err := svc.ListPage(0, 0, ""); err != nil {
			t.Fatalf("ListPage(0, 0): %v", err)
		}
	}
	wg.Wait()
}

// TestListPageCursor checks the ID-indexed cursor against the definition
// (first job with an ID above `after`) at every boundary.
func TestListPageCursor(t *testing.T) {
	svc := newTestService(t, Config{Nodes: 1, SlotsPerNode: 1, Dilation: 1, Driver: driver.Options{Mode: driver.ModeNone}})
	const jobs = 7
	for i := 0; i < jobs; i++ {
		if _, err := svc.Submit(tinySpec("c", 1)); err != nil {
			t.Fatal(err)
		}
	}
	for after := int64(-1); after <= jobs+1; after++ {
		for limit := 0; limit <= jobs+1; limit++ {
			page, err := svc.ListPage(limit, after, "")
			if err != nil {
				t.Fatal(err)
			}
			first := after + 1
			if first < 1 {
				first = 1
			}
			n := jobs - int(first) + 1
			if n < 0 {
				n = 0
			}
			next := int64(0)
			if limit > 0 && n > limit {
				n = limit
				next = first + int64(n) - 1
			}
			if len(page.Jobs) != n || page.NextAfter != next || page.Jobs == nil {
				t.Fatalf("ListPage(%d, %d) = %d jobs next %d, want %d next %d", limit, after, len(page.Jobs), page.NextAfter, n, next)
			}
			for k, st := range page.Jobs {
				if st.ID != first+int64(k) {
					t.Fatalf("ListPage(%d, %d)[%d].ID = %d", limit, after, k, st.ID)
				}
			}
		}
	}
}

// TestJobTableHolesAndChunkEdges: a job the driver refuses on its loop is
// rolled back and leaves a hole in the ID-indexed job table. Every reader
// steps over it — Status, ListPage cursors on both sides of it, Drain — and
// page walks cross the table's chunk edges (IDs 256/257 and 512/513). At the
// default history every job is kept; with a 100-job history (retain=100) the
// walks return exactly the 100 jobs that still answer Status, and every other
// job answers ErrGone.
func TestJobTableHolesAndChunkEdges(t *testing.T) {
	const jobs, hole = 600, 300
	for _, retain := range []int{0, 100} {
		t.Run(fmt.Sprintf("retain=%d", retain), func(t *testing.T) {
			svc := newTestService(t, Config{
				Nodes:           8,
				SlotsPerNode:    4,
				Dilation:        1e6,
				BaselineWorkers: -1,
				Driver:          driver.Options{Mode: driver.ModeNone},
			})
			if retain > 0 {
				setRetain(svc, retain)
			}
			for id := int64(1); id <= jobs; id++ {
				spec := tinySpec("t", 1)
				if id == hole {
					// Validate admits any slot demand; the driver refuses one
					// larger than its largest slot, on the loop, after the ID
					// was handed out.
					spec.Phases[0].Demand = 99
					if err := spec.Validate(); err != nil {
						t.Fatal(err)
					}
					if st, err := svc.Submit(spec); err == nil {
						t.Fatalf("slot demand 99 was admitted: %+v", st)
					}
					continue
				}
				if st, err := svc.Submit(spec); err != nil || st.ID != id {
					t.Fatalf("Submit: ID %d, err %v, want ID %d", st.ID, err, id)
				}
			}
			for _, id := range []int64{0, -1, jobs + 1} {
				if st, found, err := svc.Status(id); found || err != nil {
					t.Errorf("Status(%d) = %+v, found %v, err %v; want unknown", id, st, found, err)
				}
			}
			waitTerminal(t, svc, jobs-1)

			var kept []int64
			for id := int64(1); id <= jobs; id++ {
				st, found, err := svc.Status(id)
				switch {
				case found && id != hole:
					kept = append(kept, id)
				case id == hole && !found && (err == nil || retain > 0 && errors.Is(err, ErrGone)):
					// A hole is unknown, or gone once its chunk is freed.
				case !found && retain > 0 && errors.Is(err, ErrGone):
				default:
					t.Fatalf("Status(%d) = %+v, found %v, err %v", id, st, found, err)
				}
			}
			want := jobs - 1 // the default keeps every one
			if retain > 0 {
				want = retain
			}
			if len(kept) != want {
				t.Fatalf("%d jobs still answer, want %d", len(kept), want)
			}

			for _, limit := range []int{100, 1} {
				var got []int64
				for after := int64(0); ; {
					page, err := svc.ListPage(limit, after, "")
					if err != nil {
						t.Fatal(err)
					}
					for _, st := range page.Jobs {
						got = append(got, st.ID)
					}
					if page.NextAfter == 0 {
						break
					}
					if page.NextAfter != got[len(got)-1] {
						t.Fatalf("ListPage(%d, %d).NextAfter = %d, last ID %d", limit, after, page.NextAfter, got[len(got)-1])
					}
					after = page.NextAfter
				}
				if !reflect.DeepEqual(got, kept) {
					t.Fatalf("limit %d walk returned IDs %v, want the %d that answer Status %v", limit, got, len(kept), kept)
				}
			}
			for _, after := range []int64{jobs, jobs + 1, math.MaxInt64} {
				page, err := svc.ListPage(10, after, "")
				if err != nil || page.Jobs == nil || len(page.Jobs) != 0 || page.NextAfter != 0 {
					t.Errorf("ListPage(10, %d) = %+v, %v; want an empty non-nil page", after, page, err)
				}
			}

			// 1e12 virtual ms is 1000 wall seconds at this dilation: still
			// running when the drain's (already expired) grace is checked.
			if _, err := svc.Submit(JobSpec{Name: "long", Phases: []PhaseSpec{{DurationsMs: []float64{1e12}}}}); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if aborted, err := svc.Drain(ctx); err != nil || aborted != 1 {
				t.Errorf("Drain: aborted %d, err %v; want the one live job", aborted, err)
			}
		})
	}
}

// TestFilteredPageReservesOnlyWhatItReturns: an unlimited page filtered by a
// tenant that owns no job allocates next to nothing, however many jobs are
// retained (the parent reserved a status for every one of them, ~3.8 MB
// here), and a filtered page is the filter applied to the unfiltered one.
func TestFilteredPageReservesOnlyWhatItReturns(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting under the race detector measures the detector")
	}
	const jobs = 20000
	svc := newTestService(t, Config{
		Nodes:           64,
		SlotsPerNode:    4,
		Dilation:        1e6,
		BaselineWorkers: -1,
		Driver:          driver.Options{Mode: driver.ModeNone},
	})
	setRetain(svc, jobs)
	for i := 0; i < jobs; i++ {
		spec := tinySpec("f", 1)
		if i%3 == 0 {
			spec.Tenant = "a"
		}
		if _, err := svc.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	waitTerminal(t, svc, jobs)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	page, err := svc.ListPage(0, 0, "nobody")
	runtime.ReadMemStats(&m1)
	if err != nil || page.Jobs == nil || len(page.Jobs) != 0 || page.NextAfter != 0 {
		t.Fatalf("ListPage(0, 0, nobody) = %+v, %v; want an empty non-nil page", page, err)
	}
	if b := m1.TotalAlloc - m0.TotalAlloc; b >= 4096 {
		t.Errorf("an empty filtered page allocated %d bytes over %d retained jobs, want < 4 KB", b, jobs)
	}

	all, err := svc.ListPage(0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 7, 1000} {
		var want []JobStatus
		for _, st := range all.Jobs {
			if st.Tenant == "a" && (limit == 0 || len(want) < limit) {
				want = append(want, st)
			}
		}
		got, err := svc.ListPage(limit, 0, "a")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Jobs, want) {
			t.Errorf("ListPage(%d, 0, a): %d jobs, want the filter of the unfiltered page (%d)", limit, len(got.Jobs), len(want))
		}
	}
}

// TestPooledHandoffPinsNothing: once Submit returns — admitted or rolled
// back — the hand-off record it pooled holds no job, entry, shard or status;
// only the bound fn survives.
func TestPooledHandoffPinsNothing(t *testing.T) {
	svc := newTestService(t, Config{Nodes: 1, SlotsPerNode: 1, Dilation: 1, Driver: driver.Options{Mode: driver.ModeNone}})
	refused := tinySpec("refused", 1)
	refused.Phases[0].Demand = 2
	for _, spec := range []JobSpec{tinySpec("admitted", 1), refused} {
		_, err := svc.Submit(spec)
		if (err == nil) != (spec.Name == "admitted") {
			t.Fatalf("Submit(%s): %v", spec.Name, err)
		}
		h := handoffPool.Get().(*handoff)
		if h.fn == nil {
			t.Errorf("after Submit(%s) a pooled hand-off has no fn", spec.Name)
		}
		v := reflect.ValueOf(h).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.Name != "fn" && !v.Field(i).IsZero() {
				t.Errorf("after Submit(%s) a pooled hand-off still holds %s", spec.Name, f.Name)
			}
		}
		handoffPool.Put(h)
	}
}

// TestSubmitAllocatesPerJobNotPerPhase is the allocation guard for the whole
// online path: the benchmark's 80/20 job mix through Service.Submit at
// dilation 1e6, every job run to completion and drained, may cost at most 11.3
// heap allocations per job (10.22 measured; 15.21 with a closure, a reply and
// a done channel per hand-off and an entry per job, 31.6 before a job's graph
// and its runtime were each laid out in one piece). What is left is per job,
// not per phase: five for the dag.Job, three for its runtime (the jobRun and
// its two blocks), the sinks' per-event share and the downstream phases'
// locality records — no hand-off and no entry.
func TestSubmitAllocatesPerJobNotPerPhase(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	const warm, jobs = 5000, 20000
	svc := newTestService(t, Config{
		Nodes:           64,
		SlotsPerNode:    4,
		Dilation:        1e6,
		BaselineWorkers: -1,
		Driver:          ssrOptions(),
	})
	specs := make([]JobSpec, 1024)
	for i := range specs {
		specs[i] = onlineMixSpec(i)
	}
	submit := func(from, n int) {
		for i := from; i < from+n; i++ {
			if _, err := svc.Submit(specs[i%len(specs)]); err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
		}
	}
	submit(0, warm)
	waitTerminal(t, svc, warm)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	submit(warm, jobs)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if aborted, err := svc.Drain(ctx); err != nil || aborted != 0 {
		t.Fatalf("Drain: aborted %d, err %v", aborted, err)
	}
	runtime.ReadMemStats(&m1)
	perJob := float64(m1.Mallocs-m0.Mallocs) / jobs
	t.Logf("%.2f mallocs per job", perJob)
	if perJob > 11.3 {
		t.Errorf("the online path costs %.2f mallocs per job, want <= 11.3", perJob)
	}
}

// TestPostHandlerAllocsPerRequest is the allocation guard for the request
// path on top of that: the same mix as POST /v1/jobs bodies through NewHandler
// on a recorder — no TCP, no net/http server — may cost at most 19.0 heap
// allocations per job (17.22 measured, 22.22 before Submit's hand-off and entry
// stopped allocating; 48.0 with json.Decoder and json.Encoder on the path).
// Of the 7 over Submit's 10.2, the handler's own are three — the
// MaxBytesReader, the job's name, the reply's header entry — and the recorder
// copying its header map is the rest. And the codec's share is per request,
// not per phase or per task: what the handler adds over Submit is the same
// for a one-phase job as for a twelve-phase one.
func TestPostHandlerAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	// mallocsPerJob drives a fresh service with submit(i) for job i and
	// returns the mallocs per job of the measured part, Drain included.
	mallocsPerJob := func(warm, jobs int, bind func(*Service) (submit func(i int))) float64 {
		svc := newTestService(t, Config{
			Nodes:           64,
			SlotsPerNode:    4,
			Dilation:        1e6,
			BaselineWorkers: -1,
			Driver:          ssrOptions(),
		})
		submit := bind(svc)
		for i := 0; i < warm; i++ {
			submit(i)
		}
		waitTerminal(t, svc, warm)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := warm; i < warm+jobs; i++ {
			submit(i)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if aborted, err := svc.Drain(ctx); err != nil || aborted != 0 {
			t.Fatalf("Drain: aborted %d, err %v", aborted, err)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(jobs)
	}
	direct := func(specs []JobSpec) func(*Service) func(int) {
		return func(svc *Service) func(int) {
			return func(i int) {
				if _, err := svc.Submit(specs[i%len(specs)]); err != nil {
					t.Fatalf("Submit %d: %v", i, err)
				}
			}
		}
	}
	posted := func(specs []JobSpec) func(*Service) func(int) {
		bodies := make([][]byte, len(specs))
		for i, spec := range specs {
			body, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			bodies[i] = body
		}
		return func(svc *Service) func(int) {
			h := NewHandler(svc)
			rec := httptest.NewRecorder()
			body := bytes.NewReader(nil)
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs", body)
			return func(i int) {
				body.Reset(bodies[i%len(bodies)])
				rec.Body.Reset()
				*rec = httptest.ResponseRecorder{Body: rec.Body}
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusCreated {
					t.Fatalf("POST %d: %d %s", i, rec.Code, rec.Body.Bytes())
				}
			}
		}
	}

	mix := make([]JobSpec, 1024)
	for i := range mix {
		mix[i] = onlineMixSpec(i)
	}
	perJob := mallocsPerJob(5000, 20000, posted(mix))
	t.Logf("%.2f mallocs per job through the handler", perJob)
	if perJob > 19.0 {
		t.Errorf("POST /v1/jobs costs %.2f mallocs per job, want <= 19.0", perJob)
	}

	chain := func(name string, phases int) []JobSpec {
		spec := JobSpec{Name: name, Priority: 5}
		for ph := 0; ph < phases; ph++ {
			p := PhaseSpec{DurationsMs: []float64{3000, 4000.5, 5000, 6000.25}, CopyDurationsMs: []float64{1, 2, 3, 4}}
			if ph > 0 {
				p.Deps = []int{ph - 1}
			}
			spec.Phases = append(spec.Phases, p)
		}
		return []JobSpec{spec}
	}
	one, twelve := chain("chain-01", 1), chain("chain-12", 12)
	overOne := mallocsPerJob(1000, 4000, posted(one)) - mallocsPerJob(1000, 4000, direct(one))
	overTwelve := mallocsPerJob(1000, 4000, posted(twelve)) - mallocsPerJob(1000, 4000, direct(twelve))
	t.Logf("the handler adds %.2f mallocs to a 1-phase job, %.2f to a 12-phase job", overOne, overTwelve)
	if math.Abs(overOne-overTwelve) > 0.5 {
		t.Errorf("the handler adds %.2f mallocs to a 1-phase job but %.2f to a 12-phase job: its cost must be per request", overOne, overTwelve)
	}
}
