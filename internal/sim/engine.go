// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of scheduled
// callbacks. Events that share a timestamp fire in the order they were
// scheduled (FIFO by sequence number), which makes every run fully
// deterministic. The engine is single-threaded by design: determinism and
// reproducibility matter more than parallelism for scheduler simulation.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"time"
)

// Time is a virtual timestamp, measured as an offset from the start of the
// simulation. The zero value is the beginning of simulated time.
type Time = time.Duration

// ErrHalted is returned by Run when the engine was stopped via Halt before
// the event queue drained.
var ErrHalted = errors.New("sim: engine halted")

// Timer is a handle to a scheduled event. It can be used to cancel the event
// before it fires.
type Timer struct {
	eng *Engine
	at  Time
	seq uint64
	fn  func()
	// fnArg/arg are the allocation-free callback form (AtArg): a shared
	// function plus a per-event argument, so hot paths that schedule one
	// event per task need not allocate a closure each time.
	fnArg    func(any)
	arg      any
	canceled bool
	fired    bool
	// inq tracks heap membership: set on push, cleared on pop or
	// compaction. A canceled timer stays in the heap (lazy deletion)
	// until popped, so recycling must wait for inq to clear.
	inq bool
	// release marks the timer for return to the engine's free list as
	// soon as it leaves the heap (see Engine.Release and Engine.PostArg).
	release bool
}

// At reports the virtual time the timer is scheduled to fire.
func (t *Timer) At() Time { return t.at }

// Cancel prevents the timer from firing. Canceling an already-fired or
// already-canceled timer is a no-op. Cancel reports whether the timer was
// live (i.e., this call canceled it).
func (t *Timer) Cancel() bool {
	if t.fired || t.canceled {
		return false
	}
	t.canceled = true
	t.fn = nil // release closures/args for GC
	t.fnArg = nil
	t.arg = nil
	if t.eng != nil {
		t.eng.canceled++
		t.eng.maybeCompact()
	}
	return true
}

// Live reports whether the timer is still pending (not fired, not canceled).
func (t *Timer) Live() bool { return !t.fired && !t.canceled }

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	queue   timerHeap
	halted  bool
	stepped uint64
	// canceled counts dead (canceled but not yet popped) timers in the
	// queue; when they outnumber the live ones the heap is compacted so
	// workloads that cancel en masse do not bloat it.
	canceled int
	// free holds recycled Timer structs (see Release) so steady-state
	// stepping allocates no timer per event.
	free []*Timer
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events fired so far.
func (e *Engine) Events() uint64 { return e.stepped }

// Pending returns the number of live events currently scheduled. Canceled
// timers awaiting lazy removal from the queue are not counted.
func (e *Engine) Pending() int { return len(e.queue) - e.canceled }

// newTimer takes a Timer from the free list (or allocates one) and fully
// resets it, so no state from a previous life — cancellation, release
// marks, stale callbacks — can leak into the new event.
func (e *Engine) newTimer(t Time) *Timer {
	var tm *Timer
	if n := len(e.free); n > 0 {
		tm = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*tm = Timer{}
	} else {
		tm = &Timer{}
	}
	tm.eng = e
	tm.at = t
	tm.seq = e.seq
	tm.inq = true
	e.seq++
	return tm
}

// At schedules fn to run at virtual time t. Scheduling in the past (t less
// than Now) is an error: the event fires immediately at the current time
// instead, preserving causality, and At reports this by clamping. To keep
// call sites simple the clamp is silent; use Schedule for a checked variant.
func (e *Engine) At(t Time, fn func()) *Timer {
	if t < e.now {
		t = e.now
	}
	tm := e.newTimer(t)
	tm.fn = fn
	heap.Push(&e.queue, tm)
	return tm
}

// AtArg schedules fn(arg) to run at virtual time t, with the same
// past-clamping as At. Callers on hot paths use it with a long-lived fn
// (typically a method value captured once) so scheduling one event per
// task does not allocate one closure per task.
func (e *Engine) AtArg(t Time, fn func(any), arg any) *Timer {
	if t < e.now {
		t = e.now
	}
	tm := e.newTimer(t)
	tm.fnArg = fn
	tm.arg = arg
	heap.Push(&e.queue, tm)
	return tm
}

// PostArg schedules fn(arg) like AtArg but hands out no handle: the event
// cannot be canceled, and its storage returns to the free list the moment
// it fires — ahead of the callback, whose own first AtArg reuses it. It is
// for fire-and-forget events whose scheduler would only drop the handle,
// leaving a Timer nobody can ever Release.
func (e *Engine) PostArg(t Time, fn func(any), arg any) {
	e.AtArg(t, fn, arg).release = true
}

// AfterArg schedules fn(arg) to run d after the current virtual time,
// clamping negative delays to zero. See AtArg.
func (e *Engine) AfterArg(d time.Duration, fn func(any), arg any) *Timer {
	if d < 0 {
		d = 0
	}
	return e.AtArg(e.now+d, fn, arg)
}

// Release returns a finished timer's storage to the engine's free list so
// the next At/AtArg reuses it instead of allocating. The caller asserts it
// holds the only reference and will not touch the handle again — a
// released handle may be reused for an unrelated future event, so a stale
// Cancel through it would cancel someone else's timer. Releasing nil or a
// timer still live in the queue is a no-op for safety; a canceled timer
// still awaiting lazy removal is marked and recycled when it leaves the
// heap.
func (e *Engine) Release(t *Timer) {
	if t == nil || t.eng != e {
		return
	}
	if t.inq {
		if t.canceled {
			t.release = true
		}
		return
	}
	if t.fired || t.canceled {
		e.recycle(t)
	}
}

// freeSlack is how far the free list may outgrow the pending queue.
const freeSlack = 64

// recycle resets a timer that is out of the heap and shelves it for reuse —
// unless the free list already holds more timers than there are pending
// events to replace. Then this timer and one off the list go to the garbage
// collector instead, so the list follows a draining queue down: a burst of
// events scheduled up front (a batch run posts every job's activation
// before it starts) would otherwise stay parked here for the life of the
// engine.
func (e *Engine) recycle(t *Timer) {
	if n := len(e.free); n > len(e.queue)+freeSlack {
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return
	}
	*t = Timer{}
	e.free = append(e.free, t)
}

// Schedule schedules fn to run at virtual time t and returns an error if t
// is in the past.
func (e *Engine) Schedule(t Time, fn func()) (*Timer, error) {
	if t < e.now {
		return nil, fmt.Errorf("sim: schedule at %v before now %v", t, e.now)
	}
	return e.At(t, fn), nil
}

// After schedules fn to run d after the current virtual time. Negative
// delays are clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// NextAt reports the virtual timestamp of the earliest live pending event.
// ok is false when no live events are scheduled. Canceled timers encountered
// on the way are discarded. Wall-clock adapters use it to decide how long to
// sleep before the next event is due.
func (e *Engine) NextAt() (Time, bool) {
	tm := e.peek()
	if tm == nil {
		return 0, false
	}
	return tm.at, true
}

// Halt stops the run loop after the currently executing event returns. A
// Halt issued while no run loop is active is remembered: the next Run or
// RunUntil honors it immediately (returning ErrHalted before firing any
// event) and clears it.
func (e *Engine) Halt() { e.halted = true }

// compactMin is the queue length below which canceled timers are left in
// place: tiny heaps are cheap to drain lazily and not worth rebuilding.
const compactMin = 32

// maybeCompact rebuilds the heap without its canceled timers once they
// outnumber the live ones, keeping the queue proportional to the number of
// pending events rather than the number ever scheduled.
func (e *Engine) maybeCompact() {
	if len(e.queue) < compactMin || 2*e.canceled <= len(e.queue) {
		return
	}
	kept := e.queue[:0]
	for _, tm := range e.queue {
		if !tm.canceled {
			kept = append(kept, tm)
			continue
		}
		tm.inq = false
		if tm.release {
			e.recycle(tm)
		}
	}
	// Zero the tail so dropped timers are collectable.
	for i := len(kept); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = kept
	e.canceled = 0
	heap.Init(&e.queue)
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event fired (false when the queue is empty or only
// canceled timers remain).
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		tm, ok := heap.Pop(&e.queue).(*Timer)
		if !ok {
			panic("sim: heap contained a non-timer element")
		}
		tm.inq = false
		if tm.canceled {
			e.canceled--
			if tm.release {
				e.recycle(tm)
			}
			continue
		}
		e.now = tm.at
		tm.fired = true
		fn, fnArg, arg := tm.fn, tm.fnArg, tm.arg
		tm.fn = nil
		tm.fnArg = nil
		tm.arg = nil
		if tm.release {
			e.recycle(tm) // posted event (PostArg): nobody holds the handle
		}
		e.stepped++
		if fn != nil {
			fn()
		} else {
			fnArg(arg)
		}
		return true
	}
	return false
}

// Run fires events until the queue is empty or Halt is called. It returns
// ErrHalted if halted, nil otherwise. A Halt issued before Run starts is
// honored immediately; the pending halt is cleared only once it has been
// honored, so it is never silently lost.
func (e *Engine) Run() error {
	for {
		if e.halted {
			e.halted = false
			return ErrHalted
		}
		if !e.Step() {
			return nil
		}
	}
}

// RunUntil fires events with timestamps at or before deadline, then advances
// the clock to deadline (if the clock is behind it). Events scheduled after
// deadline remain pending. Like Run, it honors (and then clears) a Halt
// issued before the loop started.
func (e *Engine) RunUntil(deadline Time) error {
	for {
		if e.halted {
			e.halted = false
			return ErrHalted
		}
		tm := e.peek()
		if tm == nil || tm.at > deadline {
			if e.now < deadline {
				e.now = deadline
			}
			return nil
		}
		e.Step()
	}
}

// peek returns the next live timer without firing it, discarding canceled
// timers it encounters on the way.
func (e *Engine) peek() *Timer {
	for len(e.queue) > 0 {
		tm := e.queue[0]
		if !tm.canceled {
			return tm
		}
		heap.Pop(&e.queue)
		tm.inq = false
		e.canceled--
		if tm.release {
			e.recycle(tm)
		}
	}
	return nil
}

// timerHeap orders timers by (at, seq).
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *timerHeap) Push(x any) {
	tm, ok := x.(*Timer)
	if !ok {
		panic("sim: pushed a non-timer element")
	}
	*h = append(*h, tm)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	tm := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return tm
}
