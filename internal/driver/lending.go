package driver

import (
	"time"

	"ssr/internal/cluster"
	"ssr/internal/dag"
	"ssr/internal/obs"
)

// SlotLender is the driver's window into a cross-shard lending broker
// (internal/shard). When a phase's pre-reservation quota cannot be met from
// the home cluster's free slots — the Algorithm 1 n > m case has fired past
// threshold R and the shard is out of capacity — the driver asks the lender
// for slots on sibling shards. A granted loan is a slot checked out from a
// sibling's pool; the driver runs tasks on it as remote attempts (priced
// like any non-local placement) and the loan returns to its owner when the
// task finishes, the reservation deadline D expires, or the job ends.
//
// Lending only ever activates under ModeSSR: pre-reservation quota
// (phaseRun.preWant) is the sole borrow trigger, and only the SSR tracker
// produces it. A nil lender — the default, and the K=1 federation path —
// leaves every scheduling decision bit-identical to a driver without this
// hook.
type SlotLender interface {
	// Borrow asks sibling shards for up to req.Want slots of at least
	// req.MinSize capacity. granted is the number checked out immediately
	// (synchronous lenders); pending reports that the request was queued
	// and the lender will deliver the outcome later through
	// Driver.ResolveLoan (asynchronous lenders serving an online
	// federation). A lender must never return both granted > 0 and
	// pending.
	Borrow(req LoanRequest) (granted int, pending bool)
	// Consume marks one granted loan of the job with capacity >= minSize
	// as running; ok is false when none remains.
	Consume(job dag.JobID, minSize int) (LoanID, bool)
	// Unconsume reverts a Consume the driver could not use (no placeable
	// task after all); the loan becomes idle again.
	Unconsume(id LoanID)
	// Finish releases a consumed loan's slot back to its owning shard.
	Finish(id LoanID)
	// Return releases up to max idle (un-consumed) loans of the job,
	// restricted to loans requested by the given phase when phase >= 0;
	// max < 0 means all. It reports the number actually returned.
	Return(job dag.JobID, phase int, max int) int
}

// LoanRequest describes one borrow attempt on behalf of a phase.
type LoanRequest struct {
	// Job, JobName and Phase identify the borrower; Phase is the phase
	// whose pre-reservation quota went unmet (loans are returned when its
	// reservation deadline expires).
	Job     dag.JobID
	JobName string
	Phase   int
	// Priority is the borrowing job's priority, recorded on the loan so
	// brokers can order competing requests.
	Priority dag.Priority
	// Want is how many slots the phase still needs; MinSize the slot
	// capacity each must have (the phase's downstream demand).
	Want    int
	MinSize int
	// Tenant is the borrowing job's owning tenant; the broker accounts
	// granted loans against it.
	Tenant string
}

// LoanID identifies one granted loan: the lending shard and the slot
// checked out of its cluster.
type LoanID struct {
	Shard int
	Slot  cluster.SlotID
}

// requestLoan asks the lender to cover a phase's unmet pre-reservation
// quota. At most one asynchronous request per phase is in flight at a time.
func (d *Driver) requestLoan(pr *phaseRun) {
	if d.opts.Lender == nil || pr.loanPending || pr.preWant <= 0 {
		return
	}
	granted, pending := d.opts.Lender.Borrow(LoanRequest{
		Job:      pr.jr.job.ID,
		JobName:  pr.jr.job.Name,
		Phase:    pr.phase.ID,
		Priority: pr.jr.job.Priority,
		Want:     pr.preWant,
		MinSize:  pr.preSize(),
		Tenant:   pr.jr.job.Tenant,
	})
	if pending {
		pr.loanPending = true
		return
	}
	d.applyLoanGrant(pr, granted)
}

// applyLoanGrant absorbs granted loans into the phase's reservation state:
// borrowed slots count against the pre-reservation quota exactly like
// locally captured reserved slots.
func (d *Driver) applyLoanGrant(pr *phaseRun, granted int) {
	if granted <= 0 {
		return
	}
	jr := pr.jr
	jr.borrowed += granted
	jr.stats.BorrowedSlots += granted
	pr.preWant -= granted
	if pr.preWant < 0 {
		pr.preWant = 0
	}
	d.loanGranted(pr, granted)
	d.emit(Event{Type: EventBorrow, Job: jr.job.ID, JobName: jr.job.Name,
		Phase: pr.phase.ID, Count: granted})
}

// ResolveLoan delivers the outcome of an asynchronous Borrow. It must be
// called with exclusive driver access (on the owning shard's loop). If the
// borrowing phase no longer wants the slots — its barrier cleared, its
// deadline expired, or the job ended while the request was in flight — the
// grant is returned to the lender immediately.
func (d *Driver) ResolveLoan(job dag.JobID, phase int, granted int) {
	jr := d.jobsByID[job]
	if jr == nil {
		if granted > 0 && d.opts.Lender != nil {
			d.opts.Lender.Return(job, phase, -1)
		}
		return
	}
	pr := jr.schedulable(phase)
	if pr != nil {
		pr.loanPending = false
	}
	if granted <= 0 {
		return
	}
	if jr.finished || pr == nil || pr.tracker.Done() || pr.tracker.DeadlineExpired() {
		// The moment has passed; send the slots straight home.
		returned := d.opts.Lender.Return(job, phase, -1)
		if returned > 0 {
			d.emit(Event{Type: EventLoanReturn, Job: job, JobName: jr.job.Name,
				Phase: phase, Count: returned})
		}
		return
	}
	d.applyLoanGrant(pr, granted)
	d.scheduleDispatch()
}

// returnLoans hands up to max idle loans of the job back to their owners
// (phase >= 0 restricts to that phase's loans, max < 0 means all) and
// keeps the job's borrowed-slot count in step.
func (d *Driver) returnLoans(jr *jobRun, phase int, max int) {
	if d.opts.Lender == nil || jr.borrowed <= 0 || max == 0 {
		return
	}
	returned := d.opts.Lender.Return(jr.job.ID, phase, max)
	if returned <= 0 {
		return
	}
	jr.borrowed -= returned
	if jr.borrowed < 0 {
		jr.borrowed = 0
	}
	d.loansHome(jr, phase, returned, obs.KindLoanReturn)
	d.emit(Event{Type: EventLoanReturn, Job: jr.job.ID, JobName: jr.job.Name,
		Phase: phase, Count: returned})
}

// serveLoan places one task of pr on a borrowed sibling slot. It is the
// placement source of last resort: the slot is off-shard, so constrained
// tasks pay the full locality penalty, exactly as on an arbitrary home
// slot after the locality wait.
func (d *Driver) serveLoan(pr *phaseRun) bool {
	jr := pr.jr
	if d.opts.Lender == nil || jr.borrowed <= 0 {
		return false
	}
	id, ok := d.opts.Lender.Consume(jr.job.ID, pr.phase.Demand)
	if !ok {
		// Every recorded loan was stale; resynchronize the gauge.
		jr.borrowed = 0
		jr.loanGrants = nil
		return false
	}
	jr.borrowed--
	idx, local, ok := pr.nextTaskIdxFor(cluster.NoSlot)
	if !ok {
		d.opts.Lender.Unconsume(id)
		jr.borrowed++
		return false
	}
	d.assignRemote(pr, idx, id, local)
	return true
}

// assignRemote starts the original attempt of task idx on a borrowed
// sibling slot. The attempt runs on the home engine's clock; the slot
// itself lives on the lending shard and is released back to it through
// the lender when the attempt finishes or is killed.
func (d *Driver) assignRemote(pr *phaseRun, idx int, loan LoanID, local bool) {
	jr := pr.jr
	task := pr.phase.Tasks[idx]
	dur := task.Duration
	constrained := pr.isConstrained(idx)
	if d.opts.ForceRemote && constrained {
		local = false
	}
	if constrained && !local {
		dur = time.Duration(float64(dur) * d.opts.LocalityFactor)
		jr.stats.AnyPlacements++
	} else {
		jr.stats.LocalPlacements++
	}
	d.observePlacement(pr)
	att := d.newAttempt(attempt{pr: pr, taskIdx: idx, local: local || !constrained,
		slot: cluster.NoSlot, remote: true, loan: loan, start: d.eng.Now()})
	att.timer = d.eng.AfterArg(dur, d.onFinishArg, att)
	pr.tasks()[idx].orig = att
	pr.runningTasks++
	jr.running++
	jr.stats.RemoteTasks++
	d.emitAttempt(EventAttemptStart, att)
	d.recordTimeline(jr)
	d.syncQueue(pr)
}
