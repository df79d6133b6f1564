package driver

import (
	"errors"
	"fmt"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/obs"
	"ssr/internal/sim"
)

// This file is the driver half of the node lifecycle subsystem: spot-style
// preemption with advance notice (drain), notice cancellation (undrain),
// and elastic pool membership (activate/deactivate). The cluster owns the
// slot-level state machine; the driver owns the per-attempt and
// per-reservation decisions a notice window forces:
//
//   - an attempt that finishes inside the window rides to the wire;
//   - an attempt that cannot is preempted now, so its task restarts on a
//     surviving slot instead of losing the whole window;
//   - a reservation migrates to a surviving free slot when one of the
//     right size exists, else (under SSR) converts back into
//     pre-reservation quota, else is released early — the Eq. 3 deadline
//     still bounds how long the re-captured slot may idle.

// DrainNode puts node on preemption notice: after the notice window its
// slots fail (as if FailNode ran), but until then the scheduler may let
// short attempts finish. Draining slots leave the free pool immediately.
// Use FailNode for notice-free loss; draining a non-Up node is an error.
func (d *Driver) DrainNode(node int, notice time.Duration) error {
	if notice <= 0 {
		return errors.New("driver: drain notice must be positive (use FailNode for immediate loss)")
	}
	busy, reserved, err := d.cl.DrainNode(node)
	if err != nil {
		return fmt.Errorf("driver: %w", err)
	}
	d.fc.NodeDrains++
	m := d.opts.Metrics
	if m != nil {
		m.NodeDrains.Inc()
	}

	// Outputs cached on the node die with it when the notice closes;
	// downstream preferences degrade to ANY placement now so constrained
	// tasks do not sit out a locality wait for slots that are about to
	// disappear.
	slots := d.cl.NodeSlots(node)
	d.loc.EvictSlots(slots)
	for _, s := range slots {
		d.evictSlotPrefs(s)
		delete(d.waiters, s)
	}

	deadline := d.eng.Now() + notice

	// Per-attempt decision: ride out the notice or restart elsewhere. A
	// Busy slot without a local attempt is lent to a sibling shard; the
	// OnDrain hook below recalls those loans through the broker.
	for _, slot := range busy {
		att := d.slotOwner[slot]
		if att == nil {
			continue
		}
		if att.timer.At() <= deadline {
			continue // finishes inside the window; equal-time finish beats the wire
		}
		delete(d.slotOwner, slot)
		att.timer.Cancel()
		if d.opts.Trace != nil {
			d.traceAttempt(att, true)
		}
		d.emitAttempt(EventAttemptKill, att)
		d.fc.AttemptsPreempted++
		att.pr.jr.stats.AttemptsKilled++
		if m != nil {
			m.AttemptsPreempted.Inc()
		}
		d.audit(obs.AuditEvent{Kind: obs.KindAttemptPreempt, Job: int64(att.pr.jr.job.ID),
			JobName: att.pr.jr.job.Name, Phase: att.pr.phase.ID, Task: att.taskIdx,
			Slot: int(slot)})
		d.mustRelease(slot) // parks in Draining: the node is no longer Up
		d.onAttemptPreempted(att)
	}

	// Per-reservation decision: migrate, re-issue as quota, or release.
	for _, slot := range reserved {
		s := d.cl.Slot(slot)
		res, _ := s.Reservation()
		size := s.Size
		if err := d.cl.CancelReservation(slot); err != nil {
			panic("driver: drain: " + err.Error())
		}
		d.emitReservation(EventUnreserve, slot, res)
		delete(d.lastReserve, slot)
		if d.opts.Mode == ModeSSR && res.Job != StaticJobID {
			if dest, ok := d.cl.ReserveAnyFree(res, size); ok {
				d.emitReservation(EventReserve, dest, res)
				d.notifyWaiters(dest)
				d.fc.ReservationsMigrated++
				if m != nil {
					m.ReservationsMigrated.Inc()
				}
				d.audit(obs.AuditEvent{Kind: obs.KindReserveMigrate, Job: int64(res.Job),
					JobName: d.auditJobName(res.Job), Phase: res.Phase, Slot: int(dest)})
				continue
			}
			// No survivor of the right size is free: fall back to the
			// pre-reservation path, like a voided reservation on failure.
			if pr := d.reissueTarget(res); pr != nil {
				pr.preWant++
				d.addPreReserver(pr)
				d.fc.ReservationsReissued++
			}
		}
		d.fc.ReservationsDrained++
	}

	// Loans granted out of this node come home before the wire.
	if d.opts.OnDrain != nil {
		d.opts.OnDrain(node)
	}

	if d.drainTimers == nil {
		d.drainTimers = make(map[int]*sim.Timer)
	}
	d.drainTimers[node] = d.eng.AfterArg(notice, d.completeDrainArg, node)
	d.audit(obs.AuditEvent{Kind: obs.KindDrainStart, Slot: node,
		Count: int(notice.Milliseconds())})
	d.emitNode(EventNodeDrain, node, int(notice.Milliseconds()))
	d.updateNodeGauges()
	d.scheduleDispatch()
	return nil
}

// completeDrain closes a node's notice window: the node goes Down and any
// attempt still on it is killed at the wire. Attempts the drain decision
// let ride normally beat this event (their finish timers were armed
// earlier, and equal-time events fire FIFO), so stragglers here are lent
// slots whose borrower still holds the loan — those slots simply fail and
// the loan self-heals on the borrower's side.
func (d *Driver) completeDrain(node int) {
	if t := d.drainTimers[node]; t != nil {
		d.eng.Release(t)
		delete(d.drainTimers, node)
	}
	killed, err := d.cl.CompleteDrain(node)
	if err != nil {
		return // failed or undrained in the same instant; nothing to close
	}
	for _, slot := range killed {
		att := d.slotOwner[slot]
		if att == nil {
			continue // lent slot: the borrower's Finish finds it Failed
		}
		delete(d.slotOwner, slot)
		att.timer.Cancel()
		if d.opts.Trace != nil {
			d.traceAttempt(att, true)
		}
		d.emitAttempt(EventAttemptKill, att)
		d.fc.AttemptsPreempted++
		att.pr.jr.stats.AttemptsKilled++
		if d.opts.Metrics != nil {
			d.opts.Metrics.AttemptsPreempted.Inc()
		}
		d.onAttemptPreempted(att)
	}
	if d.opts.Metrics != nil {
		d.opts.Metrics.NodeDrainsCompleted.Inc()
	}
	d.audit(obs.AuditEvent{Kind: obs.KindDrainEnd, Slot: node, Count: len(killed)})
	d.emitNode(EventNodeDown, node, len(killed))
	d.updateNodeGauges()
	d.scheduleDispatch()
}

// UndrainNode cancels a node's preemption notice: parked slots return to
// the free pool (re-fenced under ModeStatic) and the pending wire event is
// disarmed. Attempts and reservations that rode out the notice so far are
// untouched. Undraining a node that is not draining is an error.
func (d *Driver) UndrainNode(node int) error {
	revived, err := d.cl.UndrainNode(node)
	if err != nil {
		return fmt.Errorf("driver: %w", err)
	}
	if t := d.drainTimers[node]; t != nil {
		t.Cancel()
		d.eng.Release(t)
		delete(d.drainTimers, node)
	}
	d.fc.NodeUndrains++
	if d.opts.Metrics != nil {
		d.opts.Metrics.NodeUndrains.Inc()
	}
	d.reviveSlots(revived)
	d.audit(obs.AuditEvent{Kind: obs.KindUndrain, Slot: node, Count: len(revived)})
	d.emitNode(EventNodeUndrain, node, len(revived))
	d.updateNodeGauges()
	d.scheduleDispatch()
	return nil
}

// ActivateNode brings a Down node online — the elastic pool's grow path
// after its warm-up delay. Unlike RecoverNode it does not count a failure
// recovery; it audits a node_up decision instead.
func (d *Driver) ActivateNode(node int) error {
	online, err := d.cl.RecoverNode(node)
	if err != nil {
		return fmt.Errorf("driver: %w", err)
	}
	if d.opts.Metrics != nil {
		d.opts.Metrics.NodeActivations.Inc()
	}
	d.reviveSlots(online)
	d.audit(obs.AuditEvent{Kind: obs.KindNodeUp, Slot: node, Count: len(online)})
	d.emitNode(EventNodeUp, node, len(online))
	d.updateNodeGauges()
	d.scheduleDispatch()
	return nil
}

// DeactivateNode takes an idle node offline without counting a node
// failure — elastic pools use it to set their initial size before any work
// runs. Every slot must be idle; a node holding attempts or reservations
// must be drained instead.
func (d *Driver) DeactivateNode(node int) error {
	slots := d.cl.NodeSlots(node)
	if slots == nil {
		return fmt.Errorf("driver: deactivate of unknown node %d", node)
	}
	for _, s := range slots {
		if st := d.cl.Slot(s).State(); st == cluster.Busy || st == cluster.Reserved {
			return fmt.Errorf("driver: deactivate of node %d with active slot %d (drain it instead)", node, s)
		}
	}
	if t := d.drainTimers[node]; t != nil {
		t.Cancel()
		d.eng.Release(t)
		delete(d.drainTimers, node)
	}
	if d.cl.NodeState(node) == cluster.NodeDraining {
		if _, err := d.cl.UndrainNode(node); err != nil {
			return fmt.Errorf("driver: %w", err)
		}
	}
	if _, _, err := d.cl.FailNode(node); err != nil {
		return fmt.Errorf("driver: %w", err)
	}
	d.updateNodeGauges()
	return nil
}

// reviveSlots returns recovered or undrained slots to service: static
// partition slots are re-fenced, everything else is offered to locality
// waiters (dispatch picks up the rest).
func (d *Driver) reviveSlots(revived []cluster.SlotID) {
	for _, slot := range revived {
		if d.opts.Mode == ModeStatic && int(slot) < d.opts.StaticSlots {
			d.mustReserve(slot, cluster.Reservation{
				Job:      StaticJobID,
				Priority: d.opts.StaticMinPriority - 1,
			})
			continue
		}
		d.notifyWaiters(slot)
	}
}

// onAttemptPreempted accounts for one preempted attempt. Unlike a node
// failure, preemption is not the task's fault: no failure is charged
// against its retry budget and the re-queue skips the backoff, so the task
// restarts on the next dispatch.
func (d *Driver) onAttemptPreempted(att *attempt) {
	pr := att.pr
	jr := pr.jr
	task := &pr.tasks()[att.taskIdx]
	jr.running--
	if task.orig == att {
		task.orig = nil
	}
	if task.dup == att {
		task.dup = nil
	}
	d.recordTimeline(jr)
	if task.orig != nil || task.dup != nil {
		return // the sibling attempt carries the task to completion
	}
	pr.runningTasks--
	if jr.finished {
		return
	}
	d.requeueTask(pr, att.taskIdx)
}

// QueuedTasks reports the number of tasks submitted but not yet placed
// across all unfinished jobs — the backlog signal the elastic autoscaler
// scales on. Safe to call between simulation events.
func (d *Driver) QueuedTasks() int {
	n := 0
	for _, jr := range d.live {
		for i := range jr.phases {
			if pr := jr.schedulable(i); pr != nil {
				n += pr.queued()
			}
		}
	}
	return n
}

// updateNodeGauges refreshes the node lifecycle gauges after a transition.
func (d *Driver) updateNodeGauges() {
	m := d.opts.Metrics
	if m == nil {
		return
	}
	m.NodesDraining.Set(float64(d.cl.CountNodes(cluster.NodeDraining)))
	m.NodesDown.Set(float64(d.cl.CountNodes(cluster.NodeDown)))
}

// NodeStatus is a point-in-time snapshot of one node's lifecycle state,
// safe to take between simulation events (the admin API polls it).
type NodeStatus struct {
	// Node is the node index.
	Node int
	// State is the lifecycle state (Up, Draining, Down).
	State cluster.NodeState
	// Speed is the node's speed factor (1 = baseline).
	Speed float64
	// Pool is the node's elastic pool tag ("" when unpooled).
	Pool string
	// Busy, Reserved and Free count the node's slots by state; parked
	// Draining slots count as neither.
	Busy, Reserved, Free int
	// DrainDeadline is the virtual time the pending notice window closes,
	// or a negative value when the node is not draining.
	DrainDeadline sim.Time
}

// Nodes reports every node's lifecycle snapshot.
func (d *Driver) Nodes() []NodeStatus {
	out := make([]NodeStatus, d.cl.NumNodes())
	for node := range out {
		ns := NodeStatus{
			Node:          node,
			State:         d.cl.NodeState(node),
			Speed:         d.cl.SpeedOf(node),
			Pool:          d.cl.NodePool(node),
			DrainDeadline: -1,
		}
		for _, s := range d.cl.NodeSlots(node) {
			switch d.cl.Slot(s).State() {
			case cluster.Busy:
				ns.Busy++
			case cluster.Reserved:
				ns.Reserved++
			case cluster.Free:
				ns.Free++
			}
		}
		if t := d.drainTimers[node]; t != nil && t.Live() {
			ns.DrainDeadline = t.At()
		}
		out[node] = ns
	}
	return out
}
