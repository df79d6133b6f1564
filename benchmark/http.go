package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssr/internal/service"
)

// sample is one timed request: when it completed (since the loop's origin)
// and how long it took.
type sample struct {
	at, dur time.Duration
}

// httpWorker is one keep-alive connection's closed loop.
type httpWorker struct {
	d     *daemon
	mix   *onlineMix
	mixed bool
	index int // this worker's position among cfg.Procs
	procs int
	iter  int // iterations so far; job i of the run uses spec i mod 1024
	buf   bytes.Buffer
	// recent is the ring of the last 64 job IDs this connection submitted;
	// http-mixed reads back the one submitted 64 iterations earlier.
	recent [64]int64

	posts, reads []sample
	accepted     int
	requests     int
	tally        checkTally
	log          *spanLog
}

var legalStates = map[string]bool{
	service.StatePending: true, service.StateRunning: true,
	service.StateCompleted: true, service.StateFailed: true,
}

// do sends one request and leaves the body of a 2xx response in w.buf.
func (w *httpWorker) do(method, url string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	w.requests++
	resp, err := w.d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	w.buf.Reset()
	if _, err := w.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	return nil
}

type jobReply struct {
	ID    int64  `json:"id"`
	State string `json:"state"`
}

// post submits the run's next job on this connection and returns its ID.
// traced asks for the per-job span chain.
func (w *httpWorker) post(origin time.Time, traced bool) (int64, error) {
	i := w.index + w.iter*w.procs
	t0 := time.Now()
	body := w.mix.encoded[i%onlineMixSize]
	url := w.d.api + "/v1/jobs"
	t1 := time.Now()
	if err := w.do(http.MethodPost, url, body); err != nil {
		return 0, err
	}
	t2 := time.Now()
	var st jobReply
	if err := json.Unmarshal(w.buf.Bytes(), &st); err != nil {
		return 0, fmt.Errorf("POST /v1/jobs: reply: %w", err)
	}
	t3 := time.Now()
	if st.ID <= 0 || !legalStates[st.State] {
		return 0, fmt.Errorf("POST /v1/jobs: reply id %d state %q", st.ID, st.State)
	}
	w.accepted++
	w.posts = append(w.posts, sample{at: t2.Sub(origin), dur: t2.Sub(t0)})
	if traced && w.log != nil {
		root := w.log.add("job", t0, t3, -1, st.ID)
		w.log.add("loadgen.encode", t0, t1, root, st.ID)
		w.log.add("http.roundtrip", t1, t2, root, st.ID)
		w.log.add("loadgen.decode", t2, t3, root, st.ID)
	}
	return st.ID, nil
}

// iterate is one closed-loop iteration: a POST and, on http-mixed, the reads
// that ride with it.
func (w *httpWorker) iterate(origin time.Time, traced bool) error {
	id, err := w.post(origin, traced)
	if err != nil {
		return err
	}
	slot := w.iter % len(w.recent)
	earlier := w.recent[slot]
	w.recent[slot] = id
	w.iter++
	if !w.mixed {
		return nil
	}
	if earlier != 0 {
		t0 := time.Now()
		if err := w.do(http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d", w.d.api, earlier), nil); err != nil {
			return err
		}
		t1 := time.Now()
		w.reads = append(w.reads, sample{at: t1.Sub(origin), dur: t1.Sub(t0)})
		var st jobReply
		if err := json.Unmarshal(w.buf.Bytes(), &st); err != nil {
			return fmt.Errorf("GET /v1/jobs/%d: reply: %w", earlier, err)
		}
		w.tally.add("status-returns-requested-job", st.ID == earlier && legalStates[st.State],
			"asked for job %d, got id %d state %q", earlier, st.ID, st.State)
	}
	if w.iter%256 != 0 {
		return nil
	}
	// The page ends 100 jobs short of the newest: Service.ListPage
	// dereferences a nil jobEntry.job on the shard loop, killing the daemon,
	// when its page reaches a job whose Submit is still in the hand-off
	// (about one http-mixed run in twenty with the cursor at newest-100).
	// The cursor scan over s.order, which is what this read is here to
	// price, is the same.
	after := id - 200
	if after < 0 {
		after = 0
	}
	if err := w.do(http.MethodGet, fmt.Sprintf("%s/v1/jobs?limit=100&after=%d", w.d.api, after), nil); err != nil {
		return err
	}
	var list struct {
		Jobs []jobReply `json:"jobs"`
	}
	if err := json.Unmarshal(w.buf.Bytes(), &list); err != nil {
		return fmt.Errorf("GET /v1/jobs: reply: %w", err)
	}
	ok := len(list.Jobs) == 100
	for k, j := range list.Jobs {
		if j.ID <= after || (k > 0 && j.ID <= list.Jobs[k-1].ID) {
			ok = false
		}
	}
	w.tally.add("list-pages-ascending", ok, "page after %d: %d jobs, not 100 ascending", after, len(list.Jobs))
	if err := w.do(http.MethodGet, w.d.api+"/v1/metrics?format=prometheus", nil); err != nil {
		return err
	}
	w.tally.add("prometheus-scrape-has-families", bytes.Contains(w.buf.Bytes(), []byte("# TYPE ")), "no # TYPE line in the exposition")
	return nil
}

// httpSession is one daemon with its connections, through set-up.
type httpSession struct {
	d       *daemon
	workers []*httpWorker
}

func (s *httpSession) accepted() int {
	n := 0
	for _, w := range s.workers {
		n += w.accepted
	}
	return n
}

func (s *httpSession) requests() int {
	n := 0
	for _, w := range s.workers {
		n += w.requests
	}
	return n
}

// run drives every connection's closed loop until until() says stop, and
// returns the first request error.
func (s *httpSession) run(origin time.Time, traced func(time.Duration) bool, until func(w *httpWorker) bool) error {
	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	for _, w := range s.workers {
		wg.Add(1)
		go func(w *httpWorker) {
			defer wg.Done()
			for !stop.Load() && !until(w) {
				if err := w.iterate(origin, traced != nil && traced(time.Since(origin))); err != nil {
					errOnce.Do(func() { firstErr = err })
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// startSession is the set-up of an HTTP workload: draw and encode the mix,
// start ssrd, wait for health, open the connections and warm up for a fixed
// time.
func startSession(cfg *runConfig, mixed bool) (*httpSession, error) {
	mix, err := buildOnlineMix(cfg.Seed)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg)
	if err != nil {
		return nil, err
	}
	s := &httpSession{d: d}
	for c := 0; c < cfg.Procs; c++ {
		s.workers = append(s.workers, &httpWorker{d: d, mix: mix, mixed: mixed, index: c, procs: cfg.Procs})
	}
	warmStart := time.Now()
	warm := cfg.sizes().httpWarm
	if err := s.run(warmStart, nil, func(*httpWorker) bool { return time.Since(warmStart) >= warm }); err != nil {
		d.kill()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, w := range s.workers {
		w.posts, w.reads = nil, nil // warm-up samples are not measurements
	}
	return s, nil
}

// windowStats cuts a timed phase into windows and returns, per window, the
// request rate and the p50 and p99 of the samples that completed in it. The
// window starts at one second and doubles until every window holds at least
// 1000 samples (or one window is left), so a p99 always has ten samples
// beyond it.
type windowStat struct {
	rate, p50, p99 float64
	n              int
}

func windowStats(samples []sample, from, length time.Duration) []windowStat {
	win := time.Second
	if win > length {
		win = length
	}
	for {
		n := int(length / win)
		if n < 1 {
			n = 1
		}
		buckets := make([][]int64, n)
		for _, s := range samples {
			k := int((s.at - from) / win)
			if s.at < from || k >= n {
				continue
			}
			buckets[k] = append(buckets[k], int64(s.dur))
		}
		small := false
		for _, b := range buckets {
			if len(b) < 1000 {
				small = true
			}
		}
		if small && n > 1 {
			win *= 2
			continue
		}
		out := make([]windowStat, n)
		for k, b := range buckets {
			q := nsQuantiles(b, 0.5, 0.99)
			out[k] = windowStat{rate: float64(len(b)) / win.Seconds(), p50: q[0], p99: q[1], n: len(b)}
		}
		return out
	}
}

// traceSlice is how often the traced run of an HTTP workload switches its
// spans on and off.
const traceSlice = 100 * time.Millisecond

func tracedSlice(at time.Duration) bool { return int(at/traceSlice)%2 == 1 }

func runHTTPSubmit(cfg *runConfig) (*result, error) { return runHTTP(cfg, wlHTTPSubmit, false) }
func runHTTPMixed(cfg *runConfig) (*result, error)  { return runHTTP(cfg, wlHTTPMixed, true) }

// runHTTP is both daemon workloads: a closed loop over cfg.Procs keep-alive
// connections for the measuring time, then the epilogue — every accepted job
// must complete within 5 s, the daemon is read from outside, and SIGTERM must
// end it with exit code 0.
func runHTTP(cfg *runConfig, name string, mixed bool) (*result, error) {
	res := newResult(name)
	s, setupS, err := medianSetup(5,
		func() (*httpSession, error) { return startSession(cfg, mixed) },
		func(s *httpSession) { s.d.kill() })
	if err != nil {
		return nil, err
	}
	defer s.d.kill()
	res.set("setup_s", setupS)

	warmAccepted := s.accepted()
	if _, err := s.d.awaitCompleted(warmAccepted, 5*time.Second); err != nil {
		return nil, err
	}
	before, err := s.d.stats()
	if err != nil {
		return nil, err
	}
	origin := time.Now()
	length := cfg.measure()
	var traced func(time.Duration) bool
	if cfg.Trace {
		for _, w := range s.workers {
			w.log = newSpanLog(origin, w.index+1)
		}
		traced = tracedSlice
	}
	runErr := s.run(origin, traced, func(*httpWorker) bool { return time.Since(origin) >= length })
	res.Attempted = s.requests()
	if runErr != nil {
		res.Failed++
		res.check("every-response-2xx", false, "%v%s", runErr, s.d.postMortem())
		return res, nil
	}
	res.check("every-response-2xx", true, "")
	accepted := s.accepted()
	jobs := float64(accepted - warmAccepted)

	m, err := s.d.awaitCompleted(accepted, 5*time.Second)
	res.check("backlog-drains", err == nil, "%v", err)
	if err != nil {
		return res, nil
	}
	after, err := s.d.stats()
	if err != nil {
		return nil, err
	}
	res.check("completed-equals-accepted", m.JobsCompleted == accepted, "accepted %d, completed %d", accepted, m.JobsCompleted)
	res.check("no-job-failed", m.JobsFailed == 0, "jobsFailed %d", m.JobsFailed)
	res.check("no-dropped-subscriber", m.DroppedSubscribers == 0, "droppedSubscribers %d", m.DroppedSubscribers)
	var tally checkTally
	for _, w := range s.workers {
		tally.merge(&w.tally)
	}
	tally.report(res)
	err = s.d.terminate()
	res.check("ssrd-exits-0-on-sigterm", err == nil, "%v", err)

	var posts, reads []sample
	for _, w := range s.workers {
		posts = append(posts, w.posts...)
		reads = append(reads, w.reads...)
	}
	wins := windowStats(posts, 0, length)
	col := func(ws []windowStat, f func(windowStat) float64) []float64 {
		out := make([]float64, len(ws))
		for k, w := range ws {
			out[k] = f(w)
		}
		return out
	}
	res.setN("jobs_per_s", median(col(wins, func(w windowStat) float64 { return w.rate })), len(wins))
	res.setN("submit_p50_ms", median(col(wins, func(w windowStat) float64 { return w.p50 })), len(posts))
	res.setN("submit_p99_ms", median(col(wins, func(w windowStat) float64 { return w.p99 })), len(posts))
	if mixed {
		rw := windowStats(reads, 0, length)
		res.setN("status_p50_ms", median(col(rw, func(w windowStat) float64 { return w.p50 })), len(reads))
	}
	res.set("cpu_ms_per_job", float64(after.cpu-before.cpu)/1e6/jobs)
	alloc := after.alloc.since(before.alloc)
	res.set("allocs_per_job", float64(alloc.mallocs)/jobs)
	res.set("alloc_kb_per_job", float64(alloc.bytes)/1024/jobs)
	res.set("retained_kb_per_job", (float64(after.heapAlloc)-float64(before.heapAlloc))/1024/jobs)
	res.set("peak_rss_mb", after.peakRSSMB)

	if cfg.Trace {
		// Spans were on in every other 100 ms slice of one session, so the
		// two halves saw the same daemon, heap and machine.
		var on, off float64
		for _, p := range posts {
			if p.at >= length-length%(2*traceSlice) {
				continue // an unpaired tail slice
			}
			if tracedSlice(p.at) {
				on++
			} else {
				off++
			}
		}
		overhead := 0.0
		if off > 0 {
			overhead = 1 - on/off
		}
		res.set("bench.trace_overhead_frac", overhead)
		var logs []*spanLog
		for _, w := range s.workers {
			logs = append(logs, w.log)
		}
		if err := finishTrace(cfg, res, logs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sseReplay drains GET /v1/events from sequence 0 until it has read every
// event the bus retained at the time of the call, and returns the count and
// the time taken.
func sseReplay(d *daemon, want int) (events int, took time.Duration, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.api+"/v1/events?since=0", nil)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /v1/events: %s", resp.Status)
	}
	var lastSeq, prevSeq uint64
	sc := bufio.NewScanner(resp.Body)
	for events < want && sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "id: ")
		if !ok {
			continue
		}
		if _, err := fmt.Sscan(rest, &lastSeq); err != nil {
			return events, 0, fmt.Errorf("GET /v1/events: bad id line %q", sc.Text())
		}
		if events > 0 && lastSeq != prevSeq+1 {
			return events, 0, fmt.Errorf("GET /v1/events: seq jumps %d -> %d", prevSeq, lastSeq)
		}
		prevSeq = lastSeq
		events++
	}
	if events < want {
		return events, 0, fmt.Errorf("GET /v1/events: stream ended after %d of %d events: %v", events, want, sc.Err())
	}
	return events, time.Since(t0), nil
}

// openLoopResult is the open-loop tail: requests sent on a fixed schedule
// whatever the daemon does, each timed from when it was due.
type openLoopResult struct {
	fromDue, lateness []int64 // ns
	failed            int
}

func openLoop(s *httpSession, rate float64, length time.Duration) openLoopResult {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		out   openLoopResult
		start = time.Now()
		total = int(rate * length.Seconds())
		gap   = time.Duration(float64(time.Second) / rate)
	)
	for _, w := range s.workers {
		wg.Add(1)
		go func(w *httpWorker) {
			defer wg.Done()
			var fromDue, late []int64
			failed := 0
			for k := w.index; k < total; k += w.procs {
				due := start.Add(time.Duration(k) * gap)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				if _, err := w.post(start, false); err != nil {
					failed++
					continue
				}
				w.iter++
				late = append(late, int64(sent.Sub(due)))
				fromDue = append(fromDue, int64(time.Since(due)))
			}
			mu.Lock()
			out.fromDue = append(out.fromDue, fromDue...)
			out.lateness = append(out.lateness, late...)
			out.failed += failed
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return out
}
