package driver

import (
	"errors"
	"fmt"
	"math"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/metrics"
	"ssr/internal/obs"
)

// RetryPolicy governs task re-execution after node failures. A task attempt
// killed by a failure is re-queued after an exponential backoff in virtual
// time; a task that accumulates MaxAttempts failures aborts its job (the
// Spark spark.task.maxFailures semantics).
type RetryPolicy struct {
	// MaxAttempts is the failure budget per task: the job is aborted when
	// any task loses this many attempts to node failures. Default 4.
	MaxAttempts int
	// Backoff is the delay before the first re-queue. Default 1s.
	Backoff time.Duration
	// Factor multiplies the backoff on each subsequent failure of the
	// same task. Default 2.
	Factor float64
	// MaxBackoff caps the backoff. Default 1 minute.
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.Backoff == 0 {
		p.Backoff = time.Second
	}
	if p.Factor == 0 {
		p.Factor = 2
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = time.Minute
	}
	return p
}

func (p RetryPolicy) validate() error {
	if p.MaxAttempts < 1 {
		return errors.New("driver: retry MaxAttempts must be at least 1")
	}
	if p.Backoff < 0 || p.MaxBackoff < 0 {
		return errors.New("driver: retry backoff must be non-negative")
	}
	if p.Factor < 1 {
		return fmt.Errorf("driver: retry factor %v must be >= 1", p.Factor)
	}
	return nil
}

// backoff returns the re-queue delay after the given failure count (>= 1):
// Backoff * Factor^(failures-1), capped at MaxBackoff.
func (p RetryPolicy) backoff(failures int) time.Duration {
	d := float64(p.Backoff) * math.Pow(p.Factor, float64(failures-1))
	if d > float64(p.MaxBackoff) {
		return p.MaxBackoff
	}
	return time.Duration(d)
}

// Faults returns the run's fault-injection counters.
func (d *Driver) Faults() metrics.FaultCounters { return d.fc }

// Unfinished returns the number of submitted jobs that have neither
// completed nor been aborted. Fault injectors use it to stop rescheduling
// themselves once the workload has drained.
func (d *Driver) Unfinished() int { return len(d.live) }

// FailNode takes a node down at the current virtual time:
//
//   - every attempt running on the node is killed and its task re-queued
//     under the retry policy (or the job aborted at the failure budget);
//   - reservations held on the node are voided; under ModeSSR each one is
//     re-issued as pre-reservation quota so the owning phase recaptures an
//     equivalent slot on a surviving node (Algorithm 1's pre-reservation
//     path);
//   - locality records pointing at the node are evicted — the outputs
//     cached there are lost, so downstream tasks that preferred those slots
//     fall back to ANY placement at the locality penalty.
//
// Failing an already-failed node is a no-op.
func (d *Driver) FailNode(node int) error {
	slots := d.cl.NodeSlots(node)
	if slots == nil {
		return fmt.Errorf("driver: fail of unknown node %d", node)
	}
	live := false
	for _, s := range slots {
		if d.cl.Slot(s).State() != cluster.Failed {
			live = true
			break
		}
	}
	if !live {
		return nil
	}
	busy, voided, err := d.cl.FailNode(node)
	if err != nil {
		return err
	}
	d.fc.NodeFailures++

	// A node can fail mid-notice; the pending wire event dies with it.
	if t := d.drainTimers[node]; t != nil {
		t.Cancel()
		d.eng.Release(t)
		delete(d.drainTimers, node)
	}

	// Lost outputs: downstream preferences onto this node are void. The
	// registry's backing slices are shared with narrow phases' taskPref,
	// so per-task preferences degrade to NoSlot in place.
	d.loc.EvictSlots(slots)
	for _, s := range slots {
		d.evictSlotPrefs(s)
		delete(d.waiters, s)
	}

	// Kill the attempts the node was running. An attempt may already be
	// gone if an earlier kill in this loop aborted its job.
	for _, s := range busy {
		att := d.slotOwner[s]
		if att == nil {
			continue
		}
		delete(d.slotOwner, s)
		att.timer.Cancel()
		if d.opts.Trace != nil {
			d.traceAttempt(att, true)
		}
		d.emitAttempt(EventAttemptKill, att)
		d.fc.AttemptsKilled++
		att.pr.jr.stats.AttemptsKilled++
		d.onAttemptKilled(att)
	}

	// Re-issue voided reservations on surviving slots. Only ModeSSR has
	// the pre-reservation machinery to recapture them; static fences are
	// restored by RecoverNode, and timeout reservations simply die with
	// the node.
	d.fc.ReservationsVoided += len(voided)
	if d.opts.Mode == ModeSSR {
		for _, res := range voided {
			if pr := d.reissueTarget(res); pr != nil {
				pr.preWant++
				d.addPreReserver(pr)
				d.fc.ReservationsReissued++
			}
		}
	}
	d.scheduleDispatch()
	return nil
}

// evictSlotPrefs removes a failed slot from the locality preference
// structures of every in-flight phase, so recovered slots are not mistaken
// for data-local placements after their cached outputs were lost.
func (d *Driver) evictSlotPrefs(slot cluster.SlotID) {
	for _, jr := range d.live {
		for i := range jr.phases {
			pr := jr.schedulable(i)
			if pr == nil {
				continue
			}
			if pr.narrow {
				delete(pr.prefBySlot, slot)
			} else if pr.prefSet != nil {
				delete(pr.prefSet, slot)
			}
		}
	}
}

// reissueTarget picks the phase whose pre-reservation quota should absorb a
// voided reservation: the phase that created it if its barrier has not
// cleared and its deadline has not expired, otherwise any still-reserving
// phase of the job (a reservation held across a barrier belongs to the job's
// downstream computation, not to the completed phase). nil means the
// reservation is simply lost.
func (d *Driver) reissueTarget(res cluster.Reservation) *phaseRun {
	if res.Job == StaticJobID {
		return nil
	}
	jr := d.jobsByID[res.Job]
	if jr == nil || jr.finished {
		return nil
	}
	reserving := func(pr *phaseRun) bool {
		return pr != nil && !pr.tracker.Done() && !pr.tracker.DeadlineExpired()
	}
	if pr := jr.schedulable(res.Phase); reserving(pr) {
		return pr
	}
	for i := range jr.phases {
		if pr := jr.schedulable(i); reserving(pr) && !jr.job.IsFinal(i) {
			return pr
		}
	}
	return nil
}

// onAttemptKilled accounts for one killed attempt. The caller has already
// removed it from slotOwner and canceled its timer; its slot is Failed. If a
// sibling attempt (original or mitigation copy) survives, the task is still
// in flight and nothing else happens — the surviving attempt completes the
// task. Otherwise the task is re-queued after backoff, or the job aborted at
// the failure budget.
func (d *Driver) onAttemptKilled(att *attempt) {
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
	task.failures++
	if jr.finished {
		return // the job was aborted earlier in this failure event
	}
	if task.failures >= d.opts.Retry.MaxAttempts {
		d.abortJob(jr)
		return
	}
	d.fc.TasksRetried++
	jr.stats.Retries++
	idx := att.taskIdx
	delay := d.opts.Retry.backoff(task.failures)
	if delay <= 0 {
		d.requeueTask(pr, idx)
		return
	}
	d.eng.After(delay, func() { d.requeueTask(pr, idx) })
}

// requeueTask puts a killed task back into its phase's dispatch queue once
// its backoff elapses. Retries skip the locality wait: it was already spent
// on the first attempt, and the preferred slots may no longer exist.
func (d *Driver) requeueTask(pr *phaseRun, idx int) {
	if pr.jr.finished || pr.tasks()[idx].done {
		return
	}
	pr.retryQ = append(pr.retryQ, idx)
	d.syncQueue(pr)
	d.scheduleDispatch()
}

// abortJob terminates a job whose task exhausted its retry budget: all live
// attempts are killed, reservations canceled, and the job marked Failed with
// its finish time set to now.
func (d *Driver) abortJob(jr *jobRun) {
	d.finish(jr)
	jr.stats.Failed = true
	d.fc.JobsFailed++
	for i := range jr.phases {
		pr := jr.schedulable(i)
		if pr == nil {
			continue
		}
		d.stopSpeculation(pr)
		if pr.localityTimer != nil {
			pr.localityTimer.Cancel()
			pr.localityTimer = nil
		}
		if pr.deadlineTimer != nil {
			pr.deadlineTimer.Cancel()
			pr.deadlineTimer = nil
		}
		d.dropPreReserver(pr)
		d.syncQueue(pr)
		tasks := pr.tasks()
		for i := range tasks {
			task := &tasks[i]
			livea := false
			for _, att := range []*attempt{task.orig, task.dup} {
				if att == nil {
					continue
				}
				livea = true
				att.timer.Cancel()
				delete(d.slotOwner, att.slot)
				jr.running--
				if d.opts.Trace != nil {
					d.traceAttempt(att, true)
				}
				d.emitAttempt(EventAttemptKill, att)
				// Borrowed sibling slots travel home through the lender;
				// attempts on already-failed slots have no slot to give
				// back; the others return to the pool.
				if att.remote {
					d.opts.Lender.Finish(att.loan)
					d.loansHome(jr, pr.phase.ID, 1, obs.KindLoanFinish)
				} else if d.cl.Slot(att.slot).State() == cluster.Busy {
					d.mustRelease(att.slot)
				}
			}
			if livea {
				pr.runningTasks--
			}
			task.orig, task.dup = nil, nil
		}
	}
	for _, slot := range d.cl.ReservedSlots(jr.job.ID) {
		res, _ := d.cl.Slot(slot).Reservation()
		if err := d.cl.CancelReservation(slot); err != nil {
			panic("driver: job abort: " + err.Error())
		}
		d.emitReservation(EventUnreserve, slot, res)
		d.notifyWaiters(slot)
	}
	d.returnLoans(jr, -1, -1)
	d.loc.ForgetJob(jr.job.ID)
	d.emitJob(EventJobFail, jr)
	jr.retire()
	d.recordTimeline(jr)
	d.scheduleDispatch()
}

// RecoverNode returns a failed node's slots to service. Under ModeStatic the
// recovered slots inside the static partition are re-fenced; everything else
// goes back to the free pool. Recovering a healthy node is a no-op.
func (d *Driver) RecoverNode(node int) error {
	recovered, err := d.cl.RecoverNode(node)
	if err != nil {
		return fmt.Errorf("driver: %w", err)
	}
	if len(recovered) == 0 {
		return nil
	}
	d.fc.NodeRecoveries++
	d.reviveSlots(recovered)
	d.scheduleDispatch()
	return nil
}
