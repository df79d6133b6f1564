package realtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/sim"
)

func newRunner(t *testing.T, eng *sim.Engine, opts Options) *Runner {
	t.Helper()
	r, err := New(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Stop)
	return r
}

func TestBadDilation(t *testing.T) {
	if _, err := New(sim.New(), Options{Dilation: -2}); err == nil {
		t.Error("negative dilation should error")
	}
}

// TestEventsRespectWallClock checks that an event scheduled dv into virtual
// time does not fire before dv/dilation real time has passed.
func TestEventsRespectWallClock(t *testing.T) {
	eng := sim.New()
	fired := make(chan time.Time, 1)
	// 400ms virtual at dilation 8 = 50ms real.
	eng.After(400*time.Millisecond, func() { fired <- time.Now() })
	start := time.Now()
	r := newRunner(t, eng, Options{Dilation: 8})
	select {
	case at := <-fired:
		if elapsed := at.Sub(start); elapsed < 45*time.Millisecond {
			t.Errorf("event fired after %v real, want >= ~50ms", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event never fired")
	}
	_ = r
}

// TestDilationAcceleration runs a 10-virtual-second chain far faster than
// real time.
func TestDilationAcceleration(t *testing.T) {
	eng := sim.New()
	done := make(chan struct{})
	var chain func(n int)
	chain = func(n int) {
		if n == 0 {
			close(done)
			return
		}
		eng.After(time.Second, func() { chain(n - 1) })
	}
	chain(10)
	start := time.Now()
	newRunner(t, eng, Options{Dilation: 1000})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("10 virtual seconds at dilation 1000 did not finish in 5 real seconds")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("took %v real for 10ms-equivalent of virtual work", elapsed)
	}
}

// TestCallSerializesConcurrentInjection hammers Call from many goroutines;
// the loop goroutine is the only engine toucher, so a plain counter and
// engine scheduling need no locks inside the callbacks.
func TestCallSerializesConcurrentInjection(t *testing.T) {
	eng := sim.New()
	r := newRunner(t, eng, Options{Dilation: 100})
	const callers, perCaller = 8, 50
	counter := 0
	fired := 0
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				err := r.Call(func() {
					counter++
					eng.After(time.Millisecond, func() { fired++ })
				})
				if err != nil {
					t.Errorf("Call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Let the scheduled events fire (4ms real at dilation 100 covers the
	// 1ms-virtual timers plus slack).
	deadline := time.Now().Add(2 * time.Second)
	for {
		var got int
		if err := r.Call(func() { got = fired }); err != nil {
			t.Fatal(err)
		}
		if got == callers*perCaller {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fired = %d, want %d", got, callers*perCaller)
		}
		time.Sleep(time.Millisecond)
	}
	if counter != callers*perCaller {
		t.Errorf("counter = %d, want %d", counter, callers*perCaller)
	}
}

// TestVirtualClockTracksWall checks that idle time advances the virtual
// clock at the dilation rate, so injected arrivals are stamped correctly.
func TestVirtualClockTracksWall(t *testing.T) {
	eng := sim.New()
	r := newRunner(t, eng, Options{Dilation: 20})
	time.Sleep(50 * time.Millisecond) // ~1s virtual
	now, err := r.Now()
	if err != nil {
		t.Fatal(err)
	}
	if now < 900*time.Millisecond {
		t.Errorf("virtual now = %v after ~50ms real at dilation 20, want >= ~1s", now)
	}
	if now > 30*time.Second {
		t.Errorf("virtual now = %v, implausibly far ahead", now)
	}
}

// TestCallRanIffNil races many callers against Stop with pooled call records
// in play: every Call returns nil exactly when its fn ran, and once the loop
// has stopped a Call returns ErrStopped at once, without running fn.
func TestCallRanIffNil(t *testing.T) {
	r, err := New(sim.New(), Options{Dilation: 100})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	const callers, perCaller = 8, 2000
	var (
		ran         [callers][perCaller]atomic.Bool
		served      atomic.Int64
		nils, stops atomic.Int64
		quarterDone = make(chan struct{})
		wg          sync.WaitGroup
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range ran[c] {
				flag := &ran[c][i]
				err := r.Call(func() {
					flag.Store(true)
					if served.Add(1) == callers*perCaller/4 {
						close(quarterDone)
					}
				})
				switch {
				case err == nil && flag.Load():
					nils.Add(1)
				case err == ErrStopped && !flag.Load():
					stops.Add(1)
				default:
					t.Errorf("caller %d call %d: Call = %v, fn ran = %v", c, i, err, flag.Load())
					return
				}
			}
		}(c)
	}
	<-quarterDone
	r.Stop()
	wg.Wait()
	t.Logf("%d calls ran, %d refused", nils.Load(), stops.Load())
	if nils.Load() < callers*perCaller/4 || stops.Load() == 0 {
		t.Errorf("Stop did not land mid-stream: %d ran, %d refused", nils.Load(), stops.Load())
	}
	errC := make(chan error, 1)
	go func() { errC <- r.Call(func() { t.Error("a Call after Stop ran") }) }()
	select {
	case err := <-errC:
		if err != ErrStopped {
			t.Errorf("Call after Stop = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a Call after Stop blocked")
	}
}

// TestCallDoesNotAllocate: a call onto an idle loop costs no allocation once
// the record pool is warm — the closure is the caller's, the record and its
// done channel are reused.
func TestCallDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	r := newRunner(t, sim.New(), Options{})
	n := 0
	fn := func() { n++ }
	if err := r.Call(fn); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() { _ = r.Call(fn) }); allocs != 0 {
		t.Errorf("Call allocates %v per call, want 0", allocs)
	}
	if n != 1002 {
		t.Errorf("fn ran %d times, want 1002", n)
	}
}

func TestStopIsIdempotentAndFailsCalls(t *testing.T) {
	eng := sim.New()
	r, err := New(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	r.Stop()
	r.Stop()
	if err := r.Call(func() {}); err != ErrStopped {
		t.Errorf("Call after Stop = %v, want ErrStopped", err)
	}
	if _, err := r.Now(); err != ErrStopped {
		t.Errorf("Now after Stop = %v, want ErrStopped", err)
	}
}

// TestDriverUnderRunner runs a real driver workload on the wall clock:
// jobs are injected while the loop is live, and completion is observed
// through polled Calls — the exact shape the online service uses.
func TestDriverUnderRunner(t *testing.T) {
	eng := sim.New()
	cl, err := cluster.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := driver.New(eng, cl, driver.Options{Mode: driver.ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(t, eng, Options{Dilation: 200})

	durs := []time.Duration{100 * time.Millisecond, 100 * time.Millisecond}
	for id := dag.JobID(1); id <= 3; id++ {
		err := r.Call(func() {
			job, jerr := dag.Chain(id, "rt", 5, []dag.PhaseSpec{{Durations: durs}},
				dag.WithSubmit(eng.Now()))
			if jerr != nil {
				t.Errorf("build job: %v", jerr)
				return
			}
			if serr := d.Submit(job); serr != nil {
				t.Errorf("submit: %v", serr)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var left int
		if err := r.Call(func() { left = d.Unfinished() }); err != nil {
			t.Fatal(err)
		}
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still unfinished", left)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for id := dag.JobID(1); id <= 3; id++ {
		var st, ok = func() (s time.Duration, ok bool) {
			err := r.Call(func() {
				if stats, found := d.Result(id); found {
					s, ok = stats.JCT(), true
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return
		}()
		if !ok || st <= 0 {
			t.Errorf("job %d: jct=%v ok=%v", id, st, ok)
		}
	}
}

// TestSetDilationReAnchorsMidRun switches from a fast to a near-frozen rate
// mid-run and checks both sides of the anchor: virtual time accumulated at
// the fast rate is kept (not recomputed under the new rate), and the clock
// barely moves afterwards.
func TestSetDilationReAnchorsMidRun(t *testing.T) {
	eng := sim.New()
	r := newRunner(t, eng, Options{Dilation: 2000})
	// Let well over 10 virtual seconds accumulate at dilation 2000
	// (10ms real = 20s virtual).
	var at sim.Time
	deadline := time.Now().Add(5 * time.Second)
	for at < 10*time.Second {
		if time.Now().After(deadline) {
			t.Fatalf("virtual clock only reached %v at dilation 2000", at)
		}
		time.Sleep(time.Millisecond)
		var err error
		if at, err = r.Now(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.SetDilation(0.001); err != nil {
		t.Fatal(err)
	}
	if got := r.Dilation(); got != 0.001 {
		t.Fatalf("Dilation() = %v after SetDilation(0.001)", got)
	}
	anchor, err := r.Now()
	if err != nil {
		t.Fatal(err)
	}
	if anchor < 10*time.Second {
		t.Fatalf("re-anchoring lost accumulated virtual time: %v", anchor)
	}
	// A bad anchor would keep scaling the full wall-clock-since-Start by
	// the old or mixed rate; at 0.001 the clock must be nearly frozen.
	time.Sleep(20 * time.Millisecond)
	after, err := r.Now()
	if err != nil {
		t.Fatal(err)
	}
	if drift := after - anchor; drift < 0 || drift > 100*time.Millisecond {
		t.Errorf("virtual clock moved %v at dilation 0.001, want ~20µs", drift)
	}
	if err := r.SetDilation(-1); err == nil {
		t.Error("SetDilation accepted a negative rate")
	}
}

// TestCallBeforeStartBlocks pins Call's pre-Start contract: the call parks
// until Start launches the loop, then runs.
func TestCallBeforeStartBlocks(t *testing.T) {
	eng := sim.New()
	r, err := New(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{})
	errC := make(chan error, 1)
	go func() {
		errC <- r.Call(func() { close(ran) })
	}()
	select {
	case <-ran:
		t.Fatal("Call ran before Start")
	case err := <-errC:
		t.Fatalf("Call returned %v before Start", err)
	case <-time.After(50 * time.Millisecond):
	}
	r.Start()
	defer r.Stop()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("Call never ran after Start")
	}
	if err := <-errC; err != nil {
		t.Fatalf("Call: %v", err)
	}
}

// TestStopWithPendingTimers stops a runner whose engine still has far-future
// events queued: Stop must return promptly, leave the events unfired in the
// engine, and fail subsequent Calls with ErrStopped.
func TestStopWithPendingTimers(t *testing.T) {
	eng := sim.New()
	fired := false
	for i := 1; i <= 5; i++ {
		eng.After(time.Duration(i)*time.Hour, func() { fired = true })
	}
	r, err := New(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	stopped := make(chan struct{})
	go func() { r.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on a runner with pending timers")
	}
	// The loop has exited: the engine is safe to inspect directly.
	if fired {
		t.Error("an hours-away event fired during Stop")
	}
	if n := eng.Pending(); n != 5 {
		t.Errorf("engine has %d pending events after Stop, want 5", n)
	}
	if err := r.Call(func() {}); err != ErrStopped {
		t.Errorf("Call after Stop = %v, want ErrStopped", err)
	}
}
