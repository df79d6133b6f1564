// Package realtime drives a deterministic discrete-event simulation engine
// against the wall clock, turning the offline simulator into the execution
// substrate of an online scheduling service.
//
// The engine (ssr/internal/sim) is single-threaded by design. The Runner
// preserves that: one goroutine owns the engine, fires events when their
// virtual timestamps come due on the wall clock, and executes injected
// closures (job arrivals, state snapshots) between events. All access to
// the engine — and to anything hanging off it, like the driver and cluster
// — must go through Call, which serializes callers onto the loop goroutine.
//
// A Call allocates nothing: its record (the closure and a one-slot done
// channel) comes from a pool. The loop sends on the done channel exactly once
// for every record it takes, and before it can exit, so a record returns to
// the pool only once Call has received that send (nil) or the loop never took
// it (ErrStopped) — never while the loop can still touch it.
//
// # Time dilation
//
// Virtual time advances Dilation times faster than real time: with
// Dilation 1 a 40-second job takes 40 wall-clock seconds; with Dilation
// 1000 a simulated day replays in about 86 seconds. The mapping is anchored
// at Start, so the virtual clock does not drift when the loop is briefly
// descheduled; events that have fallen due fire back to back until the loop
// catches up. SetDilation changes the rate mid-run by re-anchoring the
// mapping at the current instant, keeping virtual time continuous.
package realtime

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ssr/internal/sim"
)

// ErrStopped is returned by Call when the runner has been stopped.
var ErrStopped = errors.New("realtime: runner stopped")

// Options configures a Runner.
type Options struct {
	// Dilation is the virtual-to-real time ratio: how many virtual
	// seconds elapse per wall-clock second. Zero defaults to 1 (real
	// time); values above 1 replay faster than real time, values in
	// (0, 1) slow the simulation down.
	Dilation float64
}

func (o Options) withDefaults() (Options, error) {
	if o.Dilation == 0 {
		o.Dilation = 1
	}
	if o.Dilation < 0 {
		return o, fmt.Errorf("realtime: dilation %v must be positive", o.Dilation)
	}
	return o, nil
}

// call is one Call's record, reused through callPool; the package doc states
// when a record may go back.
type call struct {
	fn   func()
	done chan struct{}
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// Runner owns a sim.Engine and fires its events in wall-clock time.
type Runner struct {
	eng *sim.Engine
	// dilation holds the virtual-to-real ratio as math.Float64bits, so
	// Dilation() stays readable from any goroutine while SetDilation
	// swaps it on the loop.
	dilation atomic.Uint64

	// realAnchor/virtAnchor fix the wall-to-virtual mapping. Set at
	// Start, re-anchored by SetDilation from inside a Call (i.e. on the
	// loop goroutine), and otherwise only read on the loop.
	realAnchor time.Time
	virtAnchor sim.Time

	calls    chan *call
	stopC    chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// New creates a runner over the engine. The engine must not be touched by
// any other goroutine after Start, except through Call.
func New(eng *sim.Engine, opts Options) (*Runner, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &Runner{
		eng:   eng,
		calls: make(chan *call),
		stopC: make(chan struct{}),
		done:  make(chan struct{}),
	}
	r.dilation.Store(math.Float64bits(o.Dilation))
	return r, nil
}

// Dilation returns the virtual-to-real time ratio. Safe from any goroutine.
func (r *Runner) Dilation() float64 {
	return math.Float64frombits(r.dilation.Load())
}

// SetDilation changes the virtual-to-real time ratio mid-run. The clock
// mapping is re-anchored at the current instant on the loop goroutine, so
// virtual time stays continuous: everything before the change elapsed at
// the old rate, everything after at the new one. Like Call, it blocks
// until the loop picks it up (in particular, until Start) and returns
// ErrStopped after Stop.
func (r *Runner) SetDilation(d float64) error {
	if d <= 0 {
		return fmt.Errorf("realtime: dilation %v must be positive", d)
	}
	return r.Call(func() {
		// Call already caught the engine up to the wall-mapped instant
		// under the old rate; anchor the new rate there.
		r.realAnchor = time.Now()
		r.virtAnchor = r.eng.Now()
		r.dilation.Store(math.Float64bits(d))
	})
}

// Start anchors the clock mapping and launches the loop goroutine. It must
// be called exactly once.
func (r *Runner) Start() {
	r.realAnchor = time.Now()
	r.virtAnchor = r.eng.Now()
	go r.loop()
}

// Stop terminates the loop after the event or call currently executing
// returns. Pending events stay in the engine unfired. Stop is idempotent
// and safe from any goroutine; it returns once the loop has exited.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() { close(r.stopC) })
	<-r.done
}

// Done returns a channel closed when the loop has exited.
func (r *Runner) Done() <-chan struct{} { return r.done }

// virtualNow maps the current wall clock onto virtual time.
func (r *Runner) virtualNow() sim.Time {
	return r.virtAnchor + time.Duration(float64(time.Since(r.realAnchor))*r.Dilation())
}

// realDelay converts a virtual interval into the wall-clock wait for it.
func (r *Runner) realDelay(dv sim.Time) time.Duration {
	if dv <= 0 {
		return 0
	}
	return time.Duration(float64(dv) / r.Dilation())
}

// Call runs fn on the loop goroutine, with the engine's virtual clock
// advanced to the current wall-mapped time (any events that fell due fire
// first), and returns once fn has completed. fn may safely touch the
// engine and everything scheduled on it; it must not call back into the
// Runner. Call returns ErrStopped without running fn if the runner has
// stopped (or stops before fn is picked up); once the loop has picked fn up,
// it runs it to completion before it can stop, and Call returns nil.
// Call allocates nothing of its own (see the package doc).
func (r *Runner) Call(fn func()) error {
	c := callPool.Get().(*call)
	c.fn = fn
	err := ErrStopped
	select {
	case r.calls <- c:
		<-c.done
		err = nil
	case <-r.done:
	}
	c.fn = nil
	callPool.Put(c)
	return err
}

// Now returns the engine's current virtual time as of this instant. It is
// safe from any goroutine.
func (r *Runner) Now() (sim.Time, error) {
	var t sim.Time
	err := r.Call(func() { t = r.eng.Now() })
	return t, err
}

// loop is the single goroutine with engine access. Each iteration catches
// the virtual clock up to the wall-mapped time (firing due events), then
// sleeps until the next event is due, a call arrives, or Stop is issued.
func (r *Runner) loop() {
	defer close(r.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		// Fire everything that has fallen due. RunUntil also advances
		// the clock to the target when the queue runs dry, so injected
		// arrivals are stamped with the current wall-mapped time.
		r.catchUp()
		var wake <-chan time.Time
		if next, ok := r.eng.NextAt(); ok {
			timer.Reset(r.realDelay(next - r.virtualNow()))
			wake = timer.C
		}
		select {
		case c := <-r.calls:
			stopTimer(timer, wake)
			r.catchUp()
			c.fn()
			c.done <- struct{}{}
		case <-wake:
		case <-r.stopC:
			stopTimer(timer, wake)
			return
		}
	}
}

func (r *Runner) catchUp() {
	// The engine is never halted by the runner, so RunUntil cannot fail.
	if err := r.eng.RunUntil(r.virtualNow()); err != nil {
		panic("realtime: engine halted under runner: " + err.Error())
	}
}

// stopTimer drains a fired-but-unread timer so the next Reset is safe.
func stopTimer(t *time.Timer, armed <-chan time.Time) {
	if armed == nil {
		return
	}
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}
