// Package metrics collects the measurements the paper's evaluation reports:
// job completion times and slowdowns, slot utilization and reserved-idle
// loss, and running-task timelines (Figs. 5 and 13).
package metrics

import (
	"fmt"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/dag"
)

// Slowdown is the paper's primary metric: measured JCT normalized by the
// minimum JCT when running alone (Sec. VI-A). It returns +Inf-free results:
// a non-positive baseline yields NaN-free 0 to keep tables readable, which
// only ever happens on malformed inputs.
func Slowdown(measured, alone time.Duration) float64 {
	if alone <= 0 {
		return 0
	}
	return float64(measured) / float64(alone)
}

// SlotUsage integrates slot-state occupancy over virtual time via the
// cluster's state listener: how many slot-seconds were spent busy and how
// many reserved-idle. Utilization is busy time over capacity; reserved-idle
// time is the utilization loss attributable to slot reservation.
type SlotUsage struct {
	now      func() time.Duration
	slots    int
	busy     int
	reserved int

	last         time.Duration
	busyTime     time.Duration
	reservedTime time.Duration
	done         bool
}

// NewSlotUsage creates a usage integrator over a cluster of the given size.
// now must report the current virtual time (the engine's clock).
func NewSlotUsage(slots int, now func() time.Duration) *SlotUsage {
	return &SlotUsage{now: now, slots: slots}
}

// Listener returns the cluster state listener feeding this integrator.
func (u *SlotUsage) Listener() cluster.StateListener {
	return func(_ cluster.SlotID, from, to cluster.SlotState) {
		u.advance()
		switch from {
		case cluster.Busy:
			u.busy--
		case cluster.Reserved:
			u.reserved--
		}
		switch to {
		case cluster.Busy:
			u.busy++
		case cluster.Reserved:
			u.reserved++
		}
	}
}

func (u *SlotUsage) advance() {
	if u.done {
		return
	}
	u.advanceTo(u.now())
}

func (u *SlotUsage) advanceTo(t time.Duration) {
	dt := t - u.last
	if dt <= 0 {
		return
	}
	u.busyTime += time.Duration(u.busy) * dt
	u.reservedTime += time.Duration(u.reserved) * dt
	u.last = t
}

// Finish finalizes the integrals at the end of a run: occupancy is
// integrated up to now and the accumulators freeze, so late reads (an
// exporter flushing after the engine stopped, a scrape racing a drain)
// cannot stretch the horizon past the run. Finishing twice is a no-op.
func (u *SlotUsage) Finish(now time.Duration) {
	if u.done {
		return
	}
	u.advanceTo(now)
	u.done = true
}

// BusySlots returns the instantaneous busy-slot gauge.
func (u *SlotUsage) BusySlots() int { return u.busy }

// ReservedIdleSlots returns the instantaneous reserved-idle gauge.
func (u *SlotUsage) ReservedIdleSlots() int { return u.reserved }

// BusyTime returns accumulated busy slot-time up to the current clock.
func (u *SlotUsage) BusyTime() time.Duration {
	u.advance()
	return u.busyTime
}

// ReservedIdleTime returns accumulated reserved-idle slot-time up to the
// current clock: the paper's utilization loss due to reservation.
func (u *SlotUsage) ReservedIdleTime() time.Duration {
	u.advance()
	return u.reservedTime
}

// Utilization returns busy slot-time divided by total capacity over the
// given horizon (0 for an empty horizon).
func (u *SlotUsage) Utilization(horizon time.Duration) float64 {
	if horizon <= 0 || u.slots == 0 {
		return 0
	}
	return float64(u.BusyTime()) / float64(horizon) / float64(u.slots)
}

// ReservedFraction returns reserved-idle slot-time divided by capacity over
// the horizon.
func (u *SlotUsage) ReservedFraction(horizon time.Duration) float64 {
	if horizon <= 0 || u.slots == 0 {
		return 0
	}
	return float64(u.ReservedIdleTime()) / float64(horizon) / float64(u.slots)
}

// Point is one step of a step-function time series.
type Point struct {
	T time.Duration // when the value changed
	V int           // the value from T (inclusive) onward
}

// A series is stored as a chain of fixed-size blocks carved from shared
// slabs, so recording allocates once per slabBlocks blocks instead of once
// per job per doubling, and a series never outgrows and abandons storage. A
// block is 7 points and two links, 128 B; a slab of 512 is eight whole heap
// pages.
const (
	blockPoints = 7
	slabBlocks  = 512
)

// block is one link of a series: the points at positions
// [k*blockPoints, (k+1)*blockPoints) of the k-th block.
type block struct {
	pts        [blockPoints]Point
	prev, next *block
}

// chain is one job's series: n points laid out in order over the blocks from
// head on. tail is the block holding the newest point; a block emptied by a
// collapse stays linked behind it and takes the next append.
type chain struct {
	head, tail *block
	n          int
}

// at returns the point at position i, which must be one of the last two.
func (c chain) at(i int) *Point {
	b := c.tail
	if i/blockPoints != (c.n-1)/blockPoints {
		b = b.prev
	}
	return &b.pts[i%blockPoints]
}

// each calls f on the points in order until it returns false.
func (c chain) each(f func(Point) bool) {
	for b, left := c.head, c.n; left > 0; b, left = b.next, left-blockPoints {
		for _, p := range b.pts[:min(left, blockPoints)] {
			if !f(p) {
				return
			}
		}
	}
}

// Timeline records per-job running-slot counts as step functions,
// reproducing the Fig. 5 / Fig. 13 views.
type Timeline struct {
	now    func() time.Duration
	series map[dag.JobID]chain
	slab   []block // blocks of the newest slab not yet handed out
}

// NewTimeline creates a timeline recorder on the given clock.
func NewTimeline(now func() time.Duration) *Timeline {
	return &Timeline{now: now, series: make(map[dag.JobID]chain)}
}

// Record notes that job's running-slot count changed to v at the current
// virtual time. Consecutive equal values collapse; several changes at one
// instant keep only the last.
func (tl *Timeline) Record(job dag.JobID, v int) {
	c := tl.series[job]
	t := tl.now()
	if c.n > 0 {
		last := c.at(c.n - 1)
		if last.V == v {
			return
		}
		if last.T == t {
			last.V = v
			// Collapse with the preceding step if it matches now.
			if c.n > 1 && c.at(c.n-2).V == v {
				c.n--
				if c.n%blockPoints == 0 {
					c.tail = c.tail.prev
				}
				tl.series[job] = c
			}
			return
		}
	}
	i := c.n % blockPoints
	if i == 0 {
		switch {
		case c.tail == nil:
			c.head = tl.newBlock(nil)
			c.tail = c.head
		case c.tail.next == nil:
			c.tail = tl.newBlock(c.tail)
		default:
			c.tail = c.tail.next
		}
	}
	c.tail.pts[i] = Point{T: t, V: v}
	c.n++
	tl.series[job] = c
}

// newBlock carves the next block off the current slab and links it behind
// prev.
func (tl *Timeline) newBlock(prev *block) *block {
	if len(tl.slab) == 0 {
		tl.slab = make([]block, slabBlocks)
	}
	b := &tl.slab[0]
	tl.slab = tl.slab[1:]
	if prev != nil {
		b.prev, prev.next = prev, b
	}
	return b
}

// Series returns job's step function as a copy.
func (tl *Timeline) Series(job dag.JobID) []Point {
	c := tl.series[job]
	if c.n == 0 {
		return nil
	}
	out := make([]Point, 0, c.n)
	c.each(func(p Point) bool {
		out = append(out, p)
		return true
	})
	return out
}

// At returns job's value at time t (0 before the first recorded point).
func (tl *Timeline) At(job dag.JobID, t time.Duration) int {
	v := 0
	tl.series[job].each(func(p Point) bool {
		if p.T > t {
			return false
		}
		v = p.V
		return true
	})
	return v
}

// Integral returns the time integral of job's series over [from, to):
// slot-seconds held by the job in the window.
func (tl *Timeline) Integral(job dag.JobID, from, to time.Duration) time.Duration {
	if to <= from {
		return 0
	}
	var total time.Duration
	cur := 0
	last := from
	tl.series[job].each(func(p Point) bool {
		if p.T <= from {
			cur = p.V
			return true
		}
		if p.T >= to {
			return false
		}
		total += time.Duration(cur) * (p.T - last)
		cur = p.V
		last = p.T
		return true
	})
	total += time.Duration(cur) * (to - last)
	return total
}

// Jobs returns the number of jobs with recorded series.
func (tl *Timeline) Jobs() int { return len(tl.series) }

// JobStats aggregates one job's outcome in a simulation run.
type JobStats struct {
	Job             *dag.Job
	Submit          time.Duration
	Finish          time.Duration
	TasksRun        int
	CopiesLaunched  int
	CopiesWon       int
	LocalPlacements int
	AnyPlacements   int // placements that lost locality (penalized)
	// DeadlineExpiries counts phases whose slot reservation expired
	// before the barrier cleared (the reservation was "ineffective" in
	// the Sec. IV-B sense).
	DeadlineExpiries int
	// AttemptsKilled counts task attempts lost to node failures.
	AttemptsKilled int
	// Retries counts task re-queues after a fault killed the task's only
	// live attempt.
	Retries int
	// BorrowedSlots counts cross-shard loans granted to the job by a
	// federation's lending broker (zero without one).
	BorrowedSlots int
	// RemoteTasks counts task attempts executed on borrowed sibling-shard
	// slots.
	RemoteTasks int
	// Failed reports the job was aborted because a task exhausted its
	// retry budget.
	Failed bool
}

// JCT returns the job completion time (finish minus submit).
func (s JobStats) JCT() time.Duration { return s.Finish - s.Submit }

// FaultCounters aggregates the fault-injection bookkeeping of one run:
// what failed, what was killed, and how the scheduler recovered.
type FaultCounters struct {
	// NodeFailures counts FailNode events that took down a live node.
	NodeFailures int
	// NodeRecoveries counts RecoverNode events that revived slots.
	NodeRecoveries int
	// AttemptsKilled counts task attempts killed because their slot's
	// node failed.
	AttemptsKilled int
	// TasksRetried counts task re-queues (an attempt died with no live
	// sibling, and the retry budget allowed another try).
	TasksRetried int
	// ReservationsVoided counts reserved-idle slots lost to failures.
	ReservationsVoided int
	// ReservationsReissued counts voided reservations converted back
	// into pre-reservation quota on surviving slots.
	ReservationsReissued int
	// JobsFailed counts jobs aborted after a task exhausted its retries.
	JobsFailed int
	// NodeDrains counts DrainNode calls that put a live node on notice.
	NodeDrains int
	// NodeUndrains counts UndrainNode calls that canceled a notice.
	NodeUndrains int
	// AttemptsPreempted counts attempts killed by a drain because they
	// could not finish inside the notice window.
	AttemptsPreempted int
	// ReservationsMigrated counts reservations moved off a draining node
	// onto a surviving free slot.
	ReservationsMigrated int
	// ReservationsDrained counts reservations on a draining node released
	// early (no surviving slot was free; SSR re-derives them through the
	// Eq. 3 pre-reservation machinery, counted in ReservationsReissued).
	ReservationsDrained int
}

// Any reports whether any fault was recorded.
func (f FaultCounters) Any() bool { return f != FaultCounters{} }

func (f FaultCounters) String() string {
	s := fmt.Sprintf("faults: nodes down=%d up=%d, attempts killed=%d, retries=%d, reservations voided=%d reissued=%d, jobs failed=%d",
		f.NodeFailures, f.NodeRecoveries, f.AttemptsKilled, f.TasksRetried,
		f.ReservationsVoided, f.ReservationsReissued, f.JobsFailed)
	if f.NodeDrains > 0 || f.NodeUndrains > 0 {
		s += fmt.Sprintf("; drains=%d undrains=%d preempted=%d migrated=%d released=%d",
			f.NodeDrains, f.NodeUndrains, f.AttemptsPreempted,
			f.ReservationsMigrated, f.ReservationsDrained)
	}
	return s
}

func (s JobStats) String() string {
	return fmt.Sprintf("%s: jct=%v tasks=%d copies=%d/%d local=%d any=%d",
		s.Job.Name, s.JCT(), s.TasksRun, s.CopiesWon, s.CopiesLaunched,
		s.LocalPlacements, s.AnyPlacements)
}
