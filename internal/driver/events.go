package driver

import (
	"fmt"

	"ssr/internal/cluster"
	"ssr/internal/dag"
	"ssr/internal/sim"
)

// EventType enumerates the scheduler lifecycle events a Driver can report
// through Options.OnEvent.
type EventType int

// Lifecycle event types. Per job, events respect causal order: JobStart
// precedes every PhaseStart; a phase's PhaseStart precedes its
// AttemptStart events; each attempt's AttemptStart precedes its
// AttemptFinish or AttemptKill; PhaseDone follows the phase's last finish;
// JobDone (or JobFail) comes last.
const (
	// EventJobStart fires when a submitted job activates at its arrival
	// time.
	EventJobStart EventType = iota + 1
	// EventPhaseStart fires when a phase's barrier clears and its task
	// set becomes schedulable.
	EventPhaseStart
	// EventAttemptStart fires when a task attempt (original or
	// speculative copy) starts on a slot.
	EventAttemptStart
	// EventAttemptFinish fires when an attempt completes its task.
	EventAttemptFinish
	// EventAttemptKill fires when an attempt is killed: its sibling won,
	// its node failed, or its job was aborted.
	EventAttemptKill
	// EventReserve fires when a slot is reserved for a job.
	EventReserve
	// EventUnreserve fires when an idle reservation is canceled (deadline
	// or timeout expiry, reconciliation, or job completion).
	EventUnreserve
	// EventDeadlineExpire fires when a phase's reservation deadline
	// passes before its barrier clears (Sec. IV-B).
	EventDeadlineExpire
	// EventPhaseDone fires when every task of a phase has completed.
	EventPhaseDone
	// EventJobDone fires when a job's final phase completes.
	EventJobDone
	// EventJobFail fires when a job is aborted (retry budget exhausted or
	// an explicit Abort).
	EventJobFail
	// EventBorrow fires when a phase's unmet pre-reservation quota is
	// covered by slots borrowed from sibling shards; Count is the number
	// of loans granted.
	EventBorrow
	// EventLoanReturn fires when idle borrowed slots are handed back to
	// their owning shards (deadline expiry, reconciliation, or job end);
	// Count is the number returned.
	EventLoanReturn
	// EventNodeDrain fires when a node goes on preemption notice; Node is
	// the node index and Count the notice window in whole milliseconds.
	EventNodeDrain
	// EventNodeUndrain fires when a preemption notice is canceled; Node is
	// the node index and Count the slots returned to the pool.
	EventNodeUndrain
	// EventNodeDown fires when a notice window closes and the node's slots
	// fail; Node is the node index and Count the attempts killed at the
	// wire.
	EventNodeDown
	// EventNodeUp fires when an elastic pool activates a node; Node is the
	// node index and Count the slots brought online.
	EventNodeUp
)

func (t EventType) String() string {
	switch t {
	case EventJobStart:
		return "job_start"
	case EventPhaseStart:
		return "phase_start"
	case EventAttemptStart:
		return "attempt_start"
	case EventAttemptFinish:
		return "attempt_finish"
	case EventAttemptKill:
		return "attempt_kill"
	case EventReserve:
		return "reserve"
	case EventUnreserve:
		return "unreserve"
	case EventDeadlineExpire:
		return "deadline_expire"
	case EventPhaseDone:
		return "phase_done"
	case EventJobDone:
		return "job_done"
	case EventJobFail:
		return "job_fail"
	case EventBorrow:
		return "borrow"
	case EventLoanReturn:
		return "loan_return"
	case EventNodeDrain:
		return "node_drain"
	case EventNodeUndrain:
		return "node_undrain"
	case EventNodeDown:
		return "node_down"
	case EventNodeUp:
		return "node_up"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Event is one scheduler lifecycle notification. Fields beyond Type, Time,
// Job and JobName are meaningful only for the event types that concern
// them: Phase for phase/attempt/reservation events, Task/Copy/Local for
// attempt events, Slot for attempt and reservation events.
type Event struct {
	Type    EventType
	Time    sim.Time
	Job     dag.JobID
	JobName string
	Phase   int
	Task    int
	Slot    cluster.SlotID
	Copy    bool
	Local   bool
	// Count is the number of slots involved in a borrow, loan-return or
	// node lifecycle event; zero otherwise.
	Count int
	// Node is the node index of a node lifecycle event; zero otherwise.
	Node int
}

// emitNode delivers a node lifecycle event.
func (d *Driver) emitNode(t EventType, node, count int) {
	d.emit(Event{Type: t, Node: node, Count: count})
}

// emit delivers a lifecycle event to the OnEvent hook, stamping the current
// virtual time. The hook runs synchronously inside the simulation event, so
// handlers must not re-enter the driver beyond what Options.OnEvent allows.
func (d *Driver) emit(ev Event) {
	if d.opts.OnEvent == nil {
		return
	}
	ev.Time = d.eng.Now()
	d.opts.OnEvent(ev)
}

func (d *Driver) emitJob(t EventType, jr *jobRun) {
	d.emit(Event{Type: t, Job: jr.job.ID, JobName: jr.job.Name})
}

func (d *Driver) emitPhase(t EventType, pr *phaseRun) {
	d.emit(Event{Type: t, Job: pr.jr.job.ID, JobName: pr.jr.job.Name, Phase: pr.phase.ID})
}

func (d *Driver) emitAttempt(t EventType, att *attempt) {
	d.emit(Event{
		Type:    t,
		Job:     att.pr.jr.job.ID,
		JobName: att.pr.jr.job.Name,
		Phase:   att.pr.phase.ID,
		Task:    att.taskIdx,
		Slot:    att.slot,
		Copy:    att.isCopy,
		Local:   att.local,
	})
}

func (d *Driver) emitReservation(t EventType, slot cluster.SlotID, res cluster.Reservation) {
	ev := Event{Type: t, Job: res.Job, Phase: res.Phase, Slot: slot}
	if jr := d.jobsByID[res.Job]; jr != nil {
		ev.JobName = jr.job.Name
	}
	d.emit(ev)
}

// Progress is a point-in-time snapshot of one job's execution state, safe
// to take between simulation events (the online service layer polls it).
type Progress struct {
	// Job identifies the job.
	Job dag.JobID
	// PhasesDone and NumPhases report barrier progress.
	PhasesDone int
	NumPhases  int
	// RunningSlots is the number of busy slots the job currently holds
	// (originals plus speculative copies).
	RunningSlots int
	// ReservedIdle is the number of idle slots reserved for the job.
	ReservedIdle int
	// Finished reports the job reached a terminal state; Failed
	// distinguishes aborts from completions.
	Finished bool
	Failed   bool
	// Phases describes each submitted-but-incomplete phase.
	Phases []PhaseProgress
}

// PhaseProgress describes one in-flight phase.
type PhaseProgress struct {
	// ID is the phase's index within the job.
	ID int
	// TasksDone and Tasks report task progress.
	TasksDone int
	Tasks     int
	// Running is the number of attempts currently executing.
	Running int
	// DeadlineAt is the virtual time the phase's reservation deadline
	// expires, or a negative value when no deadline is armed.
	DeadlineAt sim.Time
}

// Progress reports a job's current execution state; ok is false for unknown
// (or forgotten) job IDs. A finished job reports no phases, except from
// inside its own EventJobFail, where the phases the abort cut short are
// still listed.
func (d *Driver) Progress(id dag.JobID) (Progress, bool) {
	jr, ok := d.jobsByID[id]
	if !ok {
		return Progress{}, false
	}
	p := Progress{
		Job:          id,
		PhasesDone:   jr.phasesDone,
		NumPhases:    jr.job.NumPhases(),
		RunningSlots: jr.running,
		ReservedIdle: d.cl.ReservedCount(id),
		Finished:     jr.finished,
		Failed:       jr.stats.Failed,
	}
	for i := range jr.phases {
		pr := jr.schedulable(i)
		if pr == nil || pr.tracker.Done() {
			continue
		}
		pp := PhaseProgress{
			ID:         pr.phase.ID,
			TasksDone:  pr.done,
			Tasks:      pr.phase.Parallelism(),
			Running:    pr.runningTasks,
			DeadlineAt: -1,
		}
		if pr.deadlineTimer != nil && pr.deadlineTimer.Live() {
			pp.DeadlineAt = pr.deadlineTimer.At()
		}
		p.Phases = append(p.Phases, pp)
	}
	return p, true
}

// Abort terminates an in-flight job: all live attempts are killed, its
// reservations canceled, and the job marked Failed with its finish time set
// to the current virtual time. Aborting a finished job is a no-op; a
// forgotten one is unknown. The online service uses it to cut short
// in-flight jobs when a drain deadline passes.
func (d *Driver) Abort(id dag.JobID) error {
	jr, ok := d.jobsByID[id]
	if !ok {
		return fmt.Errorf("driver: abort of unknown job %d", id)
	}
	if jr.finished {
		return nil
	}
	d.abortJob(jr)
	return nil
}
