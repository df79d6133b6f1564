package driver

import (
	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/obs"
	"ssr/internal/sim"
	"ssr/internal/trace"
)

// onFinish handles a task attempt reaching its finish time. The first
// attempt of a task to finish completes the task; the sibling attempt (if
// any) is killed and both vacated slots are run through the reservation
// policy (Algorithm 1 for the primary slot, the extra-slot rule for the
// sibling's).
func (d *Driver) onFinish(att *attempt) {
	pr := att.pr
	jr := pr.jr
	task := &pr.tasks()[att.taskIdx]
	if task.done {
		// The sibling should have been killed; reaching here is a bug.
		panic("driver: finish event for an already-completed task")
	}
	task.done = true
	pr.done++
	pr.runningTasks--
	jr.running--
	jr.stats.TasksRun++
	if jr.remaining -= pr.phase.Tasks[att.taskIdx].Duration; jr.remaining < 0 {
		jr.remaining = 0
	}
	if d.opts.Speculation.Enabled {
		pr.doneDurations = append(pr.doneDurations, d.eng.Now()-att.start)
	}
	// Sensor stage of the adaptive control loop: the winner's measured
	// service time joins the class's sliding window (before the deadline
	// below is armed, so even a phase's own first finisher counts).
	d.observeFinish(jr, d.eng.Now()-att.start)
	if att.isCopy {
		jr.stats.CopiesWon++
		if d.opts.Metrics != nil {
			d.opts.Metrics.CopiesWon.Inc()
		}
		d.audit(obs.AuditEvent{Kind: obs.KindCopyWin, Job: int64(jr.job.ID),
			JobName: jr.job.Name, Phase: pr.phase.ID, Task: att.taskIdx, Slot: int(att.slot)})
	}
	delete(d.slotOwner, att.slot)

	// Kill the losing sibling attempt, vacating its slot.
	haveLoser := false
	loser := task.orig
	if att.isCopy {
		// The copy won; the original loses.
	} else {
		loser = task.dup
	}
	if loser != nil && loser != att {
		loser.timer.Cancel()
		delete(d.slotOwner, loser.slot)
		jr.running--
		haveLoser = true
		if loser.isCopy {
			if d.opts.Metrics != nil {
				d.opts.Metrics.CopiesKilled.Inc()
			}
			d.audit(obs.AuditEvent{Kind: obs.KindCopyKill, Job: int64(jr.job.ID),
				JobName: jr.job.Name, Phase: pr.phase.ID, Task: loser.taskIdx, Slot: int(loser.slot)})
		}
	}
	if d.opts.Trace != nil {
		d.traceAttempt(att, false)
		if haveLoser {
			d.traceAttempt(loser, true)
		}
	}
	d.emitAttempt(EventAttemptFinish, att)
	if haveLoser {
		d.emitAttempt(EventAttemptKill, loser)
	}
	task.orig = nil
	task.dup = nil

	// The task's output now lives on the winner's slot. Only a downstream
	// phase ever looks a placement up, so a final phase records nothing.
	if !jr.job.IsFinal(pr.phase.ID) {
		d.loc.Record(cluster.PhaseKey{Job: jr.job.ID, Phase: pr.phase.ID},
			att.taskIdx, pr.phase.Parallelism(), att.slot)
	}

	// First completion of the phase estimates t_m and arms the
	// reservation deadline (Sec. IV-B).
	if pr.done == 1 {
		d.armDeadline(pr, d.eng.Now()-att.start)
	}

	// Algorithm 1 for the winner's slot, extra-slot rule for the loser's.
	decision, extra := pr.tracker.HandleCompletion()
	d.routeFreedSlot(pr, att, decision)
	if haveLoser {
		d.routeFreedSlot(pr, loser, pr.tracker.HandleExtraSlotFreed())
	}
	if extra > 0 {
		pr.preWant += extra
		d.addPreReserver(pr)
	}

	// Straggler mitigation: duplicate every on-going task once the
	// reserved slots can cover them all (Sec. IV-C).
	d.maybeMitigate(pr)

	d.recordTimeline(jr)

	if pr.tracker.Done() {
		d.onPhaseComplete(pr)
	}
	d.scheduleDispatch()

	// Both attempts are now fully detached (task slots and slotOwner
	// cleared above, timers fired or canceled): recycle them.
	d.freeAttempt(att)
	if haveLoser {
		d.freeAttempt(loser)
	}
}

// traceAttempt exports one finished or killed attempt to the trace
// recorder.
func (d *Driver) traceAttempt(att *attempt, killed bool) {
	d.opts.Trace.Append(trace.Event{
		Job:     att.pr.jr.job.ID,
		JobName: att.pr.jr.job.Name,
		Phase:   att.pr.phase.ID,
		Task:    att.taskIdx,
		Slot:    int(att.slot),
		Copy:    att.isCopy,
		Local:   att.local,
		Killed:  killed,
		Start:   att.start,
		End:     d.eng.Now(),
	})
}

// routeFreedSlot applies a tracker decision to the slot vacated by a
// finished or killed attempt. A home slot goes through Algorithm 1
// directly; a borrowed sibling slot always travels back to its owner
// through the lender, and a Reserve decision is converted into
// pre-reservation quota so the capacity is re-captured locally (or
// borrowed afresh) rather than holding the loan idle.
func (d *Driver) routeFreedSlot(pr *phaseRun, att *attempt, decision core.Decision) {
	if !att.remote {
		d.applyDecision(pr, att.slot, decision)
		return
	}
	d.opts.Lender.Finish(att.loan)
	d.loansHome(pr.jr, pr.phase.ID, 1, obs.KindLoanFinish)
	if d.opts.Mode == ModeSSR && decision == core.Reserve {
		pr.preWant++
		d.addPreReserver(pr)
	}
}

// applyDecision routes a vacated slot according to the active reservation
// mode and, for SSR, the tracker's decision.
func (d *Driver) applyDecision(pr *phaseRun, slot cluster.SlotID, decision core.Decision) {
	jr := pr.jr
	if d.cl.NodeState(d.cl.Slot(slot).Node) != cluster.NodeUp {
		// The slot's node is draining: reserving capacity that disappears
		// at the wire would strand the reservation. Release the slot (it
		// parks in Draining) and under SSR convert a Reserve decision into
		// pre-reservation quota on a surviving node.
		d.mustRelease(slot)
		d.auditRelease(pr, slot)
		if d.opts.Mode == ModeSSR && decision == core.Reserve {
			pr.preWant++
			d.addPreReserver(pr)
		}
		return
	}
	switch d.opts.Mode {
	case ModeSSR:
		if decision == core.Reserve {
			if s := d.cl.Slot(slot); s != nil && pr.downDemand > s.Size {
				// Sec. III-C: the slot is too small for the
				// downstream tasks — release it immediately and
				// pre-reserve one of the right size instead.
				d.mustRelease(slot)
				d.auditRelease(pr, slot)
				pr.preWant++
				d.addPreReserver(pr)
				return
			}
			d.mustReserve(slot, cluster.Reservation{
				Job:      jr.job.ID,
				Priority: jr.job.Priority,
				Phase:    pr.phase.ID,
			})
			return
		}
		d.mustRelease(slot)
		d.auditRelease(pr, slot)
	case ModeTimeout:
		// Blind reservation: hold every freed slot for the job for a
		// fixed timeout, downstream work or not (Sec. III-A.2).
		d.mustReserve(slot, cluster.Reservation{
			Job:      jr.job.ID,
			Priority: jr.job.Priority,
			Phase:    pr.phase.ID,
		})
		at := d.eng.Now()
		d.lastReserve[slot] = at
		d.eng.After(d.opts.Timeout, func() { d.expireTimeoutReservation(slot, at) })
	case ModeStatic:
		if int(slot) < d.opts.StaticSlots {
			// Re-fence the static partition.
			d.mustReserve(slot, cluster.Reservation{
				Job:      StaticJobID,
				Priority: d.opts.StaticMinPriority - 1,
			})
			return
		}
		d.mustRelease(slot)
	default:
		d.mustRelease(slot)
	}
}

// expireTimeoutReservation releases a timeout-mode reservation if the very
// reservation that armed this timer is still in place.
func (d *Driver) expireTimeoutReservation(slot cluster.SlotID, armedAt sim.Time) {
	if d.lastReserve[slot] != armedAt {
		return // consumed and re-reserved since; a newer timer owns it
	}
	delete(d.lastReserve, slot)
	s := d.cl.Slot(slot)
	if s == nil {
		return
	}
	res, ok := s.Reservation()
	if !ok {
		return
	}
	if err := d.cl.CancelReservation(slot); err != nil {
		panic("driver: timeout expiry: " + err.Error())
	}
	d.emitReservation(EventUnreserve, slot, res)
	d.notifyWaiters(slot)
	if jr := d.jobsByID[res.Job]; jr != nil {
		d.recordTimeline(jr)
	}
	d.scheduleDispatch()
}

// armDeadline derives the phase's reservation deadline from the duration of
// its first-finishing task and schedules the expiry event.
func (d *Driver) armDeadline(pr *phaseRun, firstTaskDuration sim.Time) {
	p, alpha, src := d.deadlineKnobs(pr.jr)
	dl, ok := pr.tracker.DeadlineWith(firstTaskDuration, p, alpha)
	if !ok {
		return
	}
	if d.opts.Metrics != nil {
		d.opts.Metrics.DeadlinesArmed.Inc()
	}
	d.audit(obs.AuditEvent{Kind: obs.KindDeadlineArmed, Job: int64(pr.jr.job.ID),
		JobName: pr.jr.job.Name, Phase: pr.phase.ID, Slot: -1,
		TmSec: firstTaskDuration.Seconds(), N: pr.phase.Parallelism(),
		P: p, Alpha: alpha, Src: src,
		DeadlineSec: dl.Seconds()})
	expireAt := pr.start + dl
	if expireAt <= d.eng.Now() {
		d.expireDeadline(pr)
		return
	}
	pr.deadlineTimer = d.eng.AtArg(expireAt, d.expireDeadlineArg, pr)
}

// expireDeadline fires when a phase's reservation deadline passes before
// its barrier clears: all slots reserved on behalf of this phase return to
// the pool and the phase stops reserving (Fig. 7b).
func (d *Driver) expireDeadline(pr *phaseRun) {
	d.eng.Release(pr.deadlineTimer)
	pr.deadlineTimer = nil
	pr.tracker.ExpireDeadline()
	pr.jr.stats.DeadlineExpiries++
	d.observeOutcome(pr.jr, true)
	if d.opts.Metrics != nil {
		d.opts.Metrics.DeadlinesExpired.Inc()
	}
	d.audit(obs.AuditEvent{Kind: obs.KindDeadlineExpire, Job: int64(pr.jr.job.ID),
		JobName: pr.jr.job.Name, Phase: pr.phase.ID, Slot: -1})
	d.emitPhase(EventDeadlineExpire, pr)
	d.dropPreReserver(pr)
	jobID := pr.jr.job.ID
	for _, slot := range d.cl.ReservedSlots(jobID) {
		res, ok := d.cl.Slot(slot).Reservation()
		if !ok || res.Phase != pr.phase.ID {
			continue
		}
		if err := d.cl.CancelReservation(slot); err != nil {
			panic("driver: deadline expiry: " + err.Error())
		}
		d.emitReservation(EventUnreserve, slot, res)
		d.notifyWaiters(slot)
	}
	// Borrowed sibling slots were pre-reserved under this same deadline D;
	// idle ones go home with it (Sec. IV-B applied across shards).
	d.returnLoans(pr.jr, pr.phase.ID, -1)
	d.recordTimeline(pr.jr)
	d.scheduleDispatch()
}

// maybeMitigate launches speculative copies for every on-going task of the
// phase once the job's reserved-idle slots can cover them all and no
// original task is still waiting for a slot.
func (d *Driver) maybeMitigate(pr *phaseRun) {
	if d.opts.Mode != ModeSSR || pr.queued() > 0 {
		return
	}
	jobID := pr.jr.job.ID
	reservedIdle := d.cl.ReservedCount(jobID)
	if !pr.tracker.ShouldMitigate(pr.runningTasks, reservedIdle) {
		return
	}
	// With an estimator attached, the copy budget caps concurrent
	// duplicates per its tail-index stability gate; running copies count
	// against it. Without one the paper's rule applies: duplicate every
	// ongoing task.
	budget := -1
	if ad := d.opts.Adaptive; ad != nil {
		budget = ad.CopyBudget(pr.jr.job.Tenant, pr.jr.class, pr.runningTasks)
		for _, task := range pr.tasks() {
			if task.dup != nil {
				budget--
			}
		}
		if budget < 0 {
			budget = 0
		}
	}
	for idx, task := range pr.tasks() {
		if task.done || task.orig == nil || task.dup != nil {
			continue
		}
		if budget == 0 {
			return
		}
		slot, ok := d.cl.AcquireReservedFor(jobID, pr.phase.Demand)
		if !ok {
			return
		}
		d.launchCopy(pr, idx, slot)
		if budget > 0 {
			budget--
		}
	}
}

// onPhaseComplete clears the phase's barrier: downstream phases become
// schedulable and inherit the job's reserved slots.
func (d *Driver) onPhaseComplete(pr *phaseRun) {
	jr := pr.jr
	if d.opts.Metrics != nil {
		d.opts.Metrics.PhaseJCT.ObserveDuration(d.eng.Now() - pr.start)
	}
	d.emitPhase(EventPhaseDone, pr)
	d.stopSpeculation(pr)
	if pr.localityTimer != nil {
		pr.localityTimer.Cancel()
		d.eng.Release(pr.localityTimer)
		pr.localityTimer = nil
	}
	if pr.deadlineTimer != nil {
		// The reservation was effective: every task beat the deadline.
		pr.deadlineTimer.Cancel()
		d.eng.Release(pr.deadlineTimer)
		pr.deadlineTimer = nil
		d.observeOutcome(jr, false)
	}
	d.dropPreReserver(pr)
	d.syncQueue(pr)
	jr.phasesDone++
	// The task set's manager is reachable exactly as long as its task set
	// is schedulable. Its storage stays in the job's block until the job
	// retires, so what it owned on the side goes now.
	pr.open = false
	pr.preferred, pr.prefSet, pr.taskPref, pr.prefBySlot, pr.pending = nil, nil, nil, nil, nil
	pr.retryQ, pr.doneDurations = nil, nil

	for _, child := range jr.job.Children(pr.phase.ID) {
		if jr.phases[child].depsLeft--; jr.phases[child].depsLeft == 0 {
			d.submitPhase(jr, child)
		}
	}
	if jr.phasesDone == jr.job.NumPhases() {
		d.onJobComplete(jr)
		return
	}
	d.reconcileReservations(jr)
}

// reconcileReservations releases reserved-idle slots a job can no longer
// use. It runs at each barrier: once a downstream phase is submitted its
// true degree of parallelism is revealed, resolving the speculation made
// while n was unknown (Algorithm 1, Case 1 assumed n = m). Slots are kept
// for (a) tasks not yet placed, (b) outstanding pre-reservation quota, and
// (c) the expected downstream demand of phases still executing (their
// completions reserve for the *next* barrier). With straggler mitigation
// enabled reserved slots double as mitigators (Sec. IV-C), so nothing is
// released.
func (d *Driver) reconcileReservations(jr *jobRun) {
	if d.opts.Mode != ModeSSR || d.opts.SSR.MitigateStragglers {
		return
	}
	need := 0
	for i := range jr.phases {
		pr := jr.schedulable(i)
		if pr == nil || pr.tracker.Done() {
			continue
		}
		need += pr.queued() + pr.preWant
		if !jr.job.IsFinal(pr.phase.ID) {
			// Completions of this still-running phase reserve slots
			// for its own downstream barrier; leave room for them.
			nd := pr.phase.Parallelism()
			if jr.job.ParallelismKnown {
				nd = jr.job.DownstreamParallelism(pr.phase.ID)
			}
			need += nd
		}
	}
	excess := d.cl.ReservedCount(jr.job.ID) + jr.borrowed - need
	if excess <= 0 {
		return
	}
	slots := d.cl.ReservedSlots(jr.job.ID)
	for i := len(slots) - 1; i >= 0 && excess > 0; i-- {
		res, _ := d.cl.Slot(slots[i]).Reservation()
		if err := d.cl.CancelReservation(slots[i]); err != nil {
			panic("driver: reconcile: " + err.Error())
		}
		d.emitReservation(EventUnreserve, slots[i], res)
		d.notifyWaiters(slots[i])
		excess--
	}
	// Local reservations released first; remaining excess comes out of
	// idle cross-shard loans.
	if excess > 0 {
		d.returnLoans(jr, -1, excess)
	}
	d.recordTimeline(jr)
	d.scheduleDispatch()
}

// onJobComplete finalizes a job: record its finish time, release leftover
// reservations, and drop its locality records.
func (d *Driver) onJobComplete(jr *jobRun) {
	d.finish(jr)
	for _, slot := range d.cl.ReservedSlots(jr.job.ID) {
		res, _ := d.cl.Slot(slot).Reservation()
		if err := d.cl.CancelReservation(slot); err != nil {
			panic("driver: job completion: " + err.Error())
		}
		d.emitReservation(EventUnreserve, slot, res)
		d.notifyWaiters(slot)
	}
	d.returnLoans(jr, -1, -1)
	d.loc.ForgetJob(jr.job.ID)
	d.emitJob(EventJobDone, jr)
	jr.retire()
	d.recordTimeline(jr)
	d.scheduleDispatch()
}
