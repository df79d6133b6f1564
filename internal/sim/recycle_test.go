package sim

import (
	"testing"
	"time"
)

// TestPendingCountsOnlyLiveTimers is the regression test for Pending()
// including canceled-but-not-yet-popped timers in its count.
func TestPendingCountsOnlyLiveTimers(t *testing.T) {
	e := New()
	var timers []*Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, e.At(Time(i)*time.Second, func() {}))
	}
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending() = %d, want 10", got)
	}
	// Cancel 4; they stay in the heap (lazy deletion, below compactMin)
	// but must not be counted.
	for i := 0; i < 4; i++ {
		timers[i].Cancel()
	}
	if got := e.Pending(); got != 6 {
		t.Fatalf("Pending() after 4 cancels = %d, want 6", got)
	}
	fired := 0
	for e.Step() {
		fired++
	}
	if fired != 6 {
		t.Fatalf("fired %d events, want 6", fired)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() after drain = %d, want 0", got)
	}
}

// TestCompactionCannotResurrectCanceledTimer drives the heap through a
// compaction with canceled timers and checks none of them fire afterward,
// even when new pushes land in the slots compaction vacated.
func TestCompactionCannotResurrectCanceledTimer(t *testing.T) {
	e := New()
	canceledFired := 0
	var doomed []*Timer
	for i := 0; i < 2*compactMin; i++ {
		doomed = append(doomed, e.At(Time(i)*time.Millisecond, func() { canceledFired++ }))
	}
	// Cancel them all: compaction triggers mid-way (2*canceled > len).
	for _, tm := range doomed {
		tm.Cancel()
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after canceling everything, want 0", e.Pending())
	}
	// Refill with live timers occupying the same timestamps.
	liveFired := 0
	for i := 0; i < 2*compactMin; i++ {
		e.At(Time(i)*time.Millisecond, func() { liveFired++ })
	}
	for e.Step() {
	}
	if canceledFired != 0 {
		t.Fatalf("%d canceled timers fired after compaction", canceledFired)
	}
	if liveFired != 2*compactMin {
		t.Fatalf("fired %d live timers, want %d", liveFired, 2*compactMin)
	}
	// A canceled handle must stay dead: Cancel and Live on it are inert.
	for _, tm := range doomed {
		if tm.Live() {
			t.Fatal("canceled timer reports Live after compaction")
		}
		if tm.Cancel() {
			t.Fatal("canceled timer accepted a second Cancel after compaction")
		}
	}
}

// TestReleaseRecyclesTimers checks the free-list round trip: a released
// fired timer's storage is reused by the next At, and the reused timer
// carries no state from its previous life.
func TestReleaseRecyclesTimers(t *testing.T) {
	e := New()
	tm := e.At(time.Second, func() {})
	if !e.Step() {
		t.Fatal("no event fired")
	}
	e.Release(tm)
	if len(e.free) != 1 {
		t.Fatalf("free list has %d entries after Release, want 1", len(e.free))
	}
	tm2 := e.At(2*time.Second, func() {})
	if tm2 != tm {
		t.Fatal("At did not reuse the released timer")
	}
	if len(e.free) != 0 {
		t.Fatal("free list not drained by At")
	}
	if !tm2.Live() || tm2.At() != 2*time.Second {
		t.Fatalf("reused timer carries stale state: live=%v at=%v", tm2.Live(), tm2.At())
	}
	if !e.Step() {
		t.Fatal("reused timer did not fire")
	}
}

// TestReleaseWhileQueuedIsDeferred releases a canceled timer that is still
// in the heap: recycling must wait until lazy deletion pops it, or a new
// push could alias a timer the heap still references.
func TestReleaseWhileQueuedIsDeferred(t *testing.T) {
	e := New()
	e.At(time.Second, func() {})
	tm := e.At(2*time.Second, func() {})
	tm.Cancel()
	e.Release(tm)
	if len(e.free) != 0 {
		t.Fatal("canceled timer recycled while still in the heap")
	}
	for e.Step() {
	}
	if len(e.free) != 1 {
		t.Fatalf("free list has %d entries after drain, want 1 (deferred recycle)", len(e.free))
	}
}

// TestReleaseLiveTimerIsNoop ensures a Release on a still-pending timer
// cannot corrupt the queue.
func TestReleaseLiveTimerIsNoop(t *testing.T) {
	e := New()
	fired := false
	tm := e.At(time.Second, func() { fired = true })
	e.Release(tm)
	e.Release(nil)
	if len(e.free) != 0 {
		t.Fatal("live timer landed on the free list")
	}
	for e.Step() {
	}
	if !fired {
		t.Fatal("live timer failed to fire after bogus Release")
	}
}

// TestAtArgAvoidsClosureState runs the allocation-free callback form and
// checks argument plumbing plus cancel/recycle behavior.
func TestAtArgAvoidsClosureState(t *testing.T) {
	e := New()
	var got []int
	record := func(a any) { got = append(got, a.(int)) }
	e.AtArg(2*time.Second, record, 2)
	e.AtArg(time.Second, record, 1)
	tm := e.AfterArg(3*time.Second, record, 99)
	tm.Cancel()
	e.AfterArg(3*time.Second, record, 3)
	for e.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("AtArg callbacks got %v, want [1 2 3]", got)
	}
}

// TestAtArgAllocFree verifies the steady-state schedule/fire/release cycle
// allocates nothing once the free list is warm.
func TestAtArgAllocFree(t *testing.T) {
	e := New()
	sink := func(any) {}
	arg := new(int)
	// Warm the free list.
	tm := e.AfterArg(time.Millisecond, sink, arg)
	e.Step()
	e.Release(tm)
	allocs := testing.AllocsPerRun(100, func() {
		tm := e.AfterArg(time.Millisecond, sink, arg)
		e.Step()
		e.Release(tm)
	})
	if allocs != 0 {
		t.Fatalf("schedule/fire/release cycle allocates %.1f per run, want 0", allocs)
	}
}

// TestPostArgFiresOnceInFIFOOrder: a posted event is an ordinary event to
// the queue — same clamp, same (time, sequence) order among same-instant
// AtArg events, counted by Pending — that fires exactly once.
func TestPostArgFiresOnceInFIFOOrder(t *testing.T) {
	e := New()
	var got []int
	record := func(a any) { got = append(got, a.(int)) }
	e.AtArg(time.Second, record, 1)
	e.PostArg(time.Second, record, 2)
	e.AtArg(time.Second, record, 3)
	e.PostArg(time.Second, record, 4)
	e.PostArg(-time.Second, record, 0) // past: clamped to now, so first
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending() = %d with five events scheduled, want 5", got)
	}
	for e.Step() {
	}
	if len(got) != 5 || got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 || got[4] != 4 {
		t.Fatalf("events fired as %v, want [0 1 2 3 4]", got)
	}
	if e.Pending() != 0 || e.Events() != 5 || e.Now() != time.Second {
		t.Fatalf("after the drain: Pending %d, Events %d, Now %v", e.Pending(), e.Events(), e.Now())
	}
}

// TestPostArgStorageIsReusedOnFire: the posted timer is back on the free
// list before its own callback runs, so the callback's first AtArg takes it
// and a post-fire-post cycle allocates nothing.
func TestPostArgStorageIsReusedOnFire(t *testing.T) {
	e := New()
	var inside *Timer
	e.PostArg(time.Second, func(any) {
		if len(e.free) != 1 {
			t.Errorf("free list has %d timers inside the posted callback, want 1", len(e.free))
		}
		posted := e.free[0]
		if inside = e.AtArg(2*time.Second, func(any) {}, nil); inside != posted {
			t.Error("AtArg inside the callback did not reuse the posted event's storage")
		}
	}, nil)
	e.Step()
	if inside == nil || !inside.Live() || inside.At() != 2*time.Second || inside.release {
		t.Fatalf("reused timer carries stale state: %+v", inside)
	}
	e.Step()
	e.Release(inside)
	sink := func(any) {}
	if allocs := testing.AllocsPerRun(100, func() {
		e.PostArg(e.Now()+time.Millisecond, sink, nil)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("post/fire cycle allocates %.1f per run, want 0", allocs)
	}
}

// TestPostedEventsSurviveCompaction: canceling enough AtArg timers to
// compact the heap must neither drop nor double-fire the posted events
// sharing it, and Pending stays exact throughout.
func TestPostedEventsSurviveCompaction(t *testing.T) {
	e := New()
	fired := 0
	count := func(any) { fired++ }
	var doomed []*Timer
	for i := 0; i < 2*compactMin; i++ {
		e.PostArg(Time(i)*time.Millisecond, count, nil)
		doomed = append(doomed, e.AtArg(Time(i)*time.Millisecond, count, nil))
		doomed = append(doomed, e.AtArg(Time(i)*time.Millisecond, count, nil))
	}
	for _, tm := range doomed {
		tm.Cancel()
		e.Release(tm)
	}
	if got := e.Pending(); got != 2*compactMin {
		t.Fatalf("Pending() = %d after the cancels, want %d", got, 2*compactMin)
	}
	if len(e.queue) >= 3*2*compactMin {
		t.Fatalf("heap never compacted: %d entries", len(e.queue))
	}
	for e.Step() {
	}
	if fired != 2*compactMin || e.Pending() != 0 {
		t.Fatalf("fired %d posted events (Pending %d), want %d", fired, e.Pending(), 2*compactMin)
	}
}

// TestFreeListCannotOutgrowTheQueue posts a batch run's worth of events up
// front and drains them: without the cap every fired timer would park on
// the free list for the life of the engine.
func TestFreeListCannotOutgrowTheQueue(t *testing.T) {
	e := New()
	const posts = 10000
	for i := 0; i < posts; i++ {
		e.PostArg(Time(i)*time.Millisecond, func(any) {}, nil)
	}
	for e.Step() {
		if len(e.free) > len(e.queue)+freeSlack+1 {
			t.Fatalf("free list %d with %d events pending", len(e.free), len(e.queue))
		}
	}
	if e.Events() != posts {
		t.Fatalf("fired %d events, want %d", e.Events(), posts)
	}
	if len(e.free) > freeSlack+1 {
		t.Fatalf("free list holds %d timers after the drain, want at most %d", len(e.free), freeSlack+1)
	}
	// The cap only sheds surplus: what stays is still handed out again.
	kept := len(e.free)
	tm := e.AtArg(e.Now(), func(any) {}, nil)
	if len(e.free) != kept-1 {
		t.Fatalf("AtArg after the drain took nothing off the free list (%d -> %d)", kept, len(e.free))
	}
	e.Step()
	e.Release(tm)
}
