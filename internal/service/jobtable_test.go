package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssr/internal/driver"
	"ssr/internal/shard"
)

// setRetain resizes svc's job history to keep the newest n terminal jobs
// instead of retainJobs. Call it before the first job ends.
func setRetain(svc *Service, n int) {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	svc.jobs.ring = make([]int64, n)
}

// tableRef is the reference a bounded jobTable is checked against: every ID's
// state in a map, and the terminal IDs that are still kept in a FIFO slice.
type tableRef struct {
	retain int
	n      int64
	state  map[int64]uint8
	fifo   []int64
}

// heldIn counts chunk c's entries that are neither holes nor gone.
func (r *tableRef) heldIn(c int) int {
	held := 0
	for id := int64(c*jobChunk + 1); id <= int64((c+1)*jobChunk) && id <= r.n; id++ {
		if st := r.state[id]; st != jobHole && st != jobGone {
			held++
		}
	}
	return held
}

// freed reports whether chunk c has been freed: it is full and holds nothing.
func (r *tableRef) freed(c int) bool {
	return int64((c+1)*jobChunk) <= r.n && r.heldIn(c) == 0
}

// terminate ends job id in the reference, evicting the oldest kept terminal
// job once retain are kept.
func (r *tableRef) terminate(id int64, state uint8) {
	r.state[id] = state
	r.fifo = append(r.fifo, id)
	if len(r.fifo) > r.retain {
		r.state[r.fifo[0]] = jobGone
		r.fifo = r.fifo[1:]
	}
}

// check compares every answer of t with the reference: get for every ID and
// around the ends, walks from every chunk edge and a few slots inside, the
// per-chunk held counts, and the trimmed front.
func (r *tableRef) check(t *testing.T, tab *jobTable, step int) {
	t.Helper()
	if int64(tab.n) != r.n {
		t.Fatalf("step %d: table handed out %d IDs, reference %d", step, tab.n, r.n)
	}
	var kept []int64
	for id := int64(-1); id <= r.n+2; id++ {
		e, err := tab.get(id)
		st, admitted := r.state[id]
		var wantErr error
		switch {
		case !admitted:
		case st == jobGone, st == jobHole && r.freed(int(id-1)/jobChunk):
			wantErr = ErrGone
		case st != jobHole:
			kept = append(kept, id)
		}
		wantEntry := admitted && st != jobHole && st != jobGone
		if (e != nil) != wantEntry || err != wantErr || e != nil && e.state != st {
			t.Fatalf("step %d: get(%d) = %v, %v; reference state %d (admitted %v)", step, id, e, err, st, admitted)
		}
	}
	for _, from := range []int{0, 1, jobChunk - 1, jobChunk, jobChunk + 1, 2 * jobChunk, int(r.n) / 2, int(r.n) - 1, int(r.n)} {
		var got []int64
		tab.walk(from, func(id int64, e *jobEntry) bool {
			if e.state != r.state[id] {
				t.Fatalf("step %d: walk(%d) yields job %d in state %d, reference %d", step, from, id, e.state, r.state[id])
			}
			got = append(got, id)
			return true
		})
		var want []int64
		for _, id := range kept {
			if id > int64(from) {
				want = append(want, id)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: walk(%d) = %v, want %v", step, from, got, want)
		}
	}
	if len(tab.chunks) != len(tab.held) {
		t.Fatalf("step %d: %d chunks but %d held counts", step, len(tab.chunks), len(tab.held))
	}
	if chunks := (int(r.n) + jobChunk - 1) / jobChunk; tab.first+len(tab.chunks) != chunks {
		t.Fatalf("step %d: first %d + %d chunks, want %d in all", step, tab.first, len(tab.chunks), chunks)
	}
	if len(tab.chunks) > 0 && tab.chunks[0] == nil {
		t.Fatalf("step %d: a freed chunk at the front was not trimmed", step)
	}
	total := 0
	for c := 0; c < tab.first+len(tab.chunks); c++ {
		held := r.heldIn(c)
		total += held
		if c < tab.first {
			if !r.freed(c) {
				t.Fatalf("step %d: chunk %d was trimmed holding %d entries", step, c, held)
			}
			continue
		}
		k := c - tab.first
		if int(tab.held[k]) != held || (tab.chunks[k] == nil) != r.freed(c) {
			t.Fatalf("step %d: chunk %d held %d (freed %v), reference %d (freed %v)",
				step, c, tab.held[k], tab.chunks[k] == nil, held, r.freed(c))
		}
	}
	if tab.kept != total {
		t.Fatalf("step %d: table keeps %d entries, reference %d", step, tab.kept, total)
	}
}

// TestJobTableMatchesReference drives seeded random admissions, rollbacks
// (holes), starts and terminations — in any order, so jobs end out of ID
// order — through a bounded jobTable, checking every answer against tableRef
// after every step.
func TestJobTableMatchesReference(t *testing.T) {
	for _, retain := range []int{1, 7, 256, 300} {
		t.Run(fmt.Sprint(retain), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(retain)))
			tab := jobTable{ring: make([]int64, retain)}
			ref := tableRef{retain: retain, state: map[int64]uint8{}}
			var pending, running []int64
			take := func(ids *[]int64) int64 {
				k := rng.Intn(len(*ids))
				id := (*ids)[k]
				*ids = append((*ids)[:k], (*ids)[k+1:]...)
				return id
			}
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(20); {
				case op < 7 || len(pending)+len(running) == 0: // admit
					id, e := tab.add()
					e.state = jobPending
					ref.n++
					ref.state[int64(id)] = jobPending
					pending = append(pending, int64(id))
				case op < 8 && len(pending) > 0: // roll back: a hole
					id := take(&pending)
					tab.release(id, jobEntry{})
					ref.state[id] = jobHole
				case op < 12 && len(pending) > 0: // start
					id := take(&pending)
					e, _ := tab.get(id)
					e.state = jobRunning
					ref.state[id] = jobRunning
					running = append(running, id)
				default: // terminate a running job, or abort a pending one
					ids := &running
					if len(running) == 0 || len(pending) > 0 && rng.Intn(4) == 0 {
						ids = &pending
					}
					id := take(ids)
					state := jobCompleted
					if rng.Intn(5) == 0 {
						state = jobFailed
					}
					e, _ := tab.get(id)
					e.state = state
					tab.retire(id)
					ref.terminate(id, state)
				}
				ref.check(t, &tab, step)
			}
			if tab.first == 0 {
				t.Errorf("no chunk was ever freed and trimmed in %d IDs", tab.n)
			}
		})
	}
}

// tableOps drives a jobTable by hand for the fixed cases.
type tableOps struct {
	t   *testing.T
	tab jobTable
}

func newTableOps(t *testing.T, retain int) *tableOps {
	return &tableOps{t: t, tab: jobTable{ring: make([]int64, retain)}}
}

// admit hands out n IDs, all pending, and returns the first.
func (o *tableOps) admit(n int) int64 {
	first := int64(o.tab.n + 1)
	for i := 0; i < n; i++ {
		_, e := o.tab.add()
		e.state = jobPending
	}
	return first
}

// end terminates the given jobs, in that order.
func (o *tableOps) end(ids ...int64) {
	for _, id := range ids {
		e, err := o.tab.get(id)
		if e == nil {
			o.t.Fatalf("end(%d): not a kept job (%v)", id, err)
		}
		e.state = jobCompleted
		o.tab.retire(id)
	}
}

// span is the IDs from..to, both included, less skip.
func span(from, to int64, skip ...int64) []int64 {
	var out []int64
outer:
	for id := from; id <= to; id++ {
		for _, s := range skip {
			if id == s {
				continue outer
			}
		}
		out = append(out, id)
	}
	return out
}

// answers reports get(id) as "kept", "gone" or "unknown".
func (o *tableOps) answers(id int64) string {
	switch e, err := o.tab.get(id); {
	case e != nil:
		return "kept"
	case errors.Is(err, ErrGone):
		return "gone"
	default:
		return "unknown"
	}
}

func (o *tableOps) expect(want string, ids ...int64) {
	o.t.Helper()
	for _, id := range ids {
		if got := o.answers(id); got != want {
			o.t.Errorf("job %d answers %s, want %s", id, got, want)
		}
	}
}

func (o *tableOps) walk(from int) []int64 {
	var got []int64
	o.tab.walk(from, func(id int64, _ *jobEntry) bool {
		got = append(got, id)
		return true
	})
	return got
}

// TestJobTableFixedCases pins the cases the random walk reaches only by luck.
func TestJobTableFixedCases(t *testing.T) {
	t.Run("a live job pins its chunk between freed ones", func(t *testing.T) {
		o := newTableOps(t, 1)
		o.admit(3 * jobChunk) // chunks 0, 1, 2: IDs 1..768
		const live = 300
		o.end(span(1, 3*jobChunk, live)...)
		o.end(o.admit(1)) // 769 opens chunk 3 and evicts 768
		if o.tab.first != 1 || len(o.tab.chunks) != 3 || o.tab.chunks[0] == nil || o.tab.chunks[1] != nil || o.tab.chunks[2] == nil {
			t.Fatalf("first %d, chunks %v; want chunk 0 trimmed, 1 pinned, 2 freed, 3 open", o.tab.first, o.tab.chunks)
		}
		if o.tab.held[0] != 1 {
			t.Errorf("the pinned chunk holds %d entries, want the live job alone", o.tab.held[0])
		}
		o.expect("kept", live, 769)
		o.expect("gone", 1, 256, 257, live-1, live+1, 512, 513, 768)
		// Page cursors crossing the freed chunk, from before, inside and after it.
		for from, want := range map[int][]int64{0: {live, 769}, live: {769}, 600: {769}, 768: {769}, 769: nil} {
			if got := o.walk(from); !reflect.DeepEqual(got, want) {
				t.Errorf("walk(%d) = %v, want %v", from, got, want)
			}
		}
		o.end(live)
		o.end(o.admit(1)) // 770 evicts the live job, now ended: chunks 1 and 2 go
		if o.tab.first != 3 || len(o.tab.chunks) != 1 {
			t.Errorf("first %d, %d chunks; want only the open chunk 3", o.tab.first, len(o.tab.chunks))
		}
		o.expect("gone", live, 769)
	})
	t.Run("eviction follows termination order", func(t *testing.T) {
		o := newTableOps(t, 2)
		o.admit(3)
		o.end(2, 3, 1) // the long job 1 ends last
		o.expect("gone", 2)
		o.expect("kept", 3, 1)
		o.end(o.admit(1))
		o.expect("gone", 2, 3)
		o.expect("kept", 1, 4)
	})
	t.Run("a hole is unknown in a kept chunk and gone in a freed one", func(t *testing.T) {
		o := newTableOps(t, 1)
		const hole = 10
		o.admit(jobChunk)
		o.tab.release(hole, jobEntry{})
		o.end(span(1, jobChunk, hole)...)
		o.expect("unknown", hole)
		o.expect("kept", jobChunk)
		o.end(o.admit(1))
		o.expect("gone", hole, jobChunk)
		o.expect("unknown", 0, jobChunk+2)
	})
	t.Run("100,000 jobs keep (live + retain)/256 + 2 chunks", func(t *testing.T) {
		const retain, jobs, window = 1000, 100000, 64
		o := newTableOps(t, retain)
		rng := rand.New(rand.NewSource(1))
		var live []int64
		for i := 0; i < jobs; i++ {
			live = append(live, o.admit(1))
			if len(live) == window {
				// End one of the eight oldest live jobs: out of ID order,
				// but no job outlives the window by much.
				k := rng.Intn(8)
				o.end(live[k])
				live = append(live[:k], live[k+1:]...)
			}
			if limit := (len(live)+retain)/jobChunk + 2; len(o.tab.chunks) > limit {
				t.Fatalf("after %d jobs, %d live: %d chunks, want <= %d", i+1, len(live), len(o.tab.chunks), limit)
			}
		}
	})
}

// TestJobTableIsBounded: 100,000 tiny jobs through a service that keeps 1000
// terminal ones leave at most ⌈(live + 1000)/256⌉ + 2 chunks allocated.
func TestJobTableIsBounded(t *testing.T) {
	const retain, jobs = 1000, 100000
	svc := newTestService(t, Config{
		Nodes:           8,
		SlotsPerNode:    4,
		Dilation:        1e6,
		BaselineWorkers: -1,
		Driver:          driver.Options{Mode: driver.ModeNone},
	})
	setRetain(svc, retain)
	spec := JobSpec{Name: "b", Phases: []PhaseSpec{{DurationsMs: []float64{1}}}}
	check := func(submitted int) {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		allocated := 0
		for _, c := range svc.jobs.chunks {
			if c != nil {
				allocated++
			}
		}
		if limit := (svc.outstanding+retain+jobChunk-1)/jobChunk + 2; allocated > limit {
			t.Fatalf("after %d jobs, %d live: %d chunks allocated, want <= %d", submitted, svc.outstanding, allocated, limit)
		}
	}
	for i := 1; i <= jobs; i++ {
		if _, err := svc.Submit(spec); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if i%10000 == 0 {
			check(i)
		}
	}
	waitTerminal(t, svc, jobs)
	check(jobs)
}

// strayRouter sends jobs named "stray" to a shard that does not exist.
type strayRouter struct{}

func (strayRouter) Name() string { return "stray" }

func (strayRouter) Pick(info shard.JobInfo, _ []shard.Load) int {
	if info.Name == "stray" {
		return -1
	}
	return 0
}

// TestOutOfRangeRouterPickLeavesAHole: a router pick outside the shards rolls
// the admission back like a refused hand-off does. The ID becomes a hole that
// the chunk's held count no longer includes, so the chunk is freed once it is
// full and its jobs are evicted.
func TestOutOfRangeRouterPickLeavesAHole(t *testing.T) {
	svc := newTestService(t, Config{
		Nodes:           2,
		SlotsPerNode:    2,
		Dilation:        1e6,
		BaselineWorkers: -1,
		Router:          strayRouter{},
		Driver:          driver.Options{Mode: driver.ModeNone},
	})
	setRetain(svc, 1)
	ok := JobSpec{Name: "ok", Phases: []PhaseSpec{{DurationsMs: []float64{1}}}}
	stray := JobSpec{Name: "stray", Phases: []PhaseSpec{{DurationsMs: []float64{1}}}}
	submit := func(id int64, spec JobSpec) {
		t.Helper()
		st, err := svc.Submit(spec)
		switch {
		case spec.Name == "stray" && err == nil:
			t.Fatalf("job %d: a pick of shard -1 was admitted: %+v", id, st)
		case spec.Name == "ok" && (err != nil || st.ID != id):
			t.Fatalf("job %d: Submit = ID %d, %v", id, st.ID, err)
		}
	}
	// Chunk 0: the odd IDs are admitted, the even ones picked out of range.
	for id := int64(1); id <= jobChunk; id++ {
		if id%2 == 0 {
			submit(id, stray)
		} else {
			submit(id, ok)
		}
	}
	svc.mu.Lock()
	held, kept := int(svc.jobs.held[0]), svc.jobs.kept
	want := jobChunk/2 - max(svc.jobs.ended-1, 0) // admitted less evicted
	svc.mu.Unlock()
	if held != want || kept != want {
		t.Fatalf("chunk 0 holds %d, the table keeps %d; want %d for both", held, kept, want)
	}
	waitTerminal(t, svc, jobChunk/2)
	// Job 257 ends after every job of chunk 0 and evicts the last of them;
	// job 258, a hole in the kept chunk 1, stays unknown.
	submit(jobChunk+1, ok)
	waitTerminal(t, svc, jobChunk/2+1)
	submit(jobChunk+2, stray)
	svc.mu.Lock()
	first, chunks, kept := svc.jobs.first, len(svc.jobs.chunks), svc.jobs.kept
	svc.mu.Unlock()
	if first != 1 || chunks != 1 || kept != 1 {
		t.Fatalf("first %d, %d chunks, %d kept; want chunk 0 freed and trimmed, job %d alone kept", first, chunks, kept, jobChunk+1)
	}
	for id, wantErr := range map[int64]error{2: ErrGone, jobChunk: ErrGone, jobChunk + 2: nil} {
		if st, found, err := svc.Status(id); found || err != wantErr {
			t.Errorf("Status(%d) = %+v, found %v, err %v; want not found, %v", id, st, found, err, wantErr)
		}
	}
}

// TestReadsRacingEvictionAnswerGone: with one terminal job kept, the live job
// a Status or ListPage found under the lock has often ended and been evicted
// by the time the read reaches the job's shard loop. Status then answers
// ErrGone and the page keeps the view it took; neither renders the evicted
// entry.
func TestReadsRacingEvictionAnswerGone(t *testing.T) {
	svc := newTestService(t, Config{
		Nodes:           8,
		SlotsPerNode:    4,
		Dilation:        1e6,
		BaselineWorkers: -1,
		Driver:          driver.Options{Mode: driver.ModeNone},
	})
	setRetain(svc, 1)
	var (
		newest atomic.Int64
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				id := newest.Load()
				st, found, err := svc.Status(id)
				if found && (st.ID != id || st.State == "") || err != nil && !errors.Is(err, ErrGone) {
					t.Errorf("Status(%d) = %+v, found %v, err %v", id, st, found, err)
					return
				}
				page, err := svc.ListPage(20, id-10, "")
				for _, st := range page.Jobs {
					if st.State == "" || err != nil {
						t.Errorf("ListPage(20, %d) holds %+v, err %v", id-10, st, err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		st, err := svc.Submit(tinySpec("r", 1))
		if err != nil {
			t.Error(err)
			break
		}
		newest.Store(st.ID)
	}
	stop.Store(true)
	wg.Wait()
}

// TestWaitJobReportsGone: a job that ends and is evicted between two of
// WaitJob's polls ends the wait with an error satisfying IsGone, and the
// daemon answers it 404 with the code "gone"; an ID never issued stays
// "not_found".
func TestWaitJobReportsGone(t *testing.T) {
	svc := newTestService(t, Config{Nodes: 2, SlotsPerNode: 2, Dilation: 100, Driver: ssrOptions()})
	setRetain(svc, 1)
	var (
		mu      sync.Mutex
		polls   int
		polled  = make(chan struct{})
		release = make(chan struct{})
	)
	h := NewHandler(svc)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs/1" {
			mu.Lock()
			polls++
			n := polls
			mu.Unlock()
			if n == 2 {
				<-release // hold the second poll until job 1 is evicted
			}
			h.ServeHTTP(w, r)
			if n == 1 {
				close(polled)
			}
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)

	// 50 virtual s = 500 ms of wall clock: still live at the first poll.
	first, err := svc.Submit(JobSpec{Name: "slow", Phases: []PhaseSpec{{DurationsMs: []float64{50000}}}})
	if err != nil || first.ID != 1 {
		t.Fatalf("Submit: %+v, %v", first, err)
	}
	waited := make(chan error, 1)
	go func() {
		st, err := c.WaitJob(context.Background(), first.ID, time.Millisecond)
		if err == nil {
			err = fmt.Errorf("WaitJob returned %+v and no error", st)
		}
		waited <- err
	}()
	<-polled
	waitTerminal(t, svc, 1)
	if _, err := svc.Submit(tinySpec("next", 1)); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, 2) // job 2 ends after job 1 and evicts it
	close(release)
	if err := <-waited; !IsGone(err) {
		t.Fatalf("WaitJob on an evicted job: %v, want an error satisfying IsGone", err)
	}
	if _, err := c.Job(context.Background(), 2); err != nil {
		t.Errorf("the retained job: %v", err)
	}
	for id, code := range map[int64]string{1: CodeGone, 3: CodeNotFound} {
		_, err := c.Job(context.Background(), id)
		var ae *apiError
		if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || ae.Code != code {
			t.Errorf("GET job %d: %v, want 404 %s", id, err, code)
		}
	}
	if IsGone(nil) || IsGone(errors.New("gone")) {
		t.Error("IsGone accepts an error that is not a gone reply")
	}
}
