// Package core implements speculative slot reservation — the paper's
// contribution. It contains the pure decision logic:
//
//   - Algorithm 1: whether a slot freed by a completing task should be
//     reserved for the job's downstream computation or released, with the
//     three parallelism cases (n unknown / n == m, n < m, n > m) and
//     pre-reservation once the phase passes the threshold R.
//   - Deadline-based reservation expiry (Sec. IV-B): the reservation
//     deadline derived from the Pareto workload model at the operator's
//     chosen isolation level P.
//   - The straggler-mitigation trigger (Sec. IV-C): once the reserved-idle
//     slots can cover every on-going task, duplicate them all.
//
// The package is deliberately independent of the simulator: the driver
// feeds it observations and applies its decisions, which also makes the
// policy directly reusable atop a real scheduler.
package core

import (
	"fmt"
	"math"
	"time"

	"ssr/internal/model"
)

// UnknownParallelism marks the downstream degree of parallelism as not
// available a priori (Algorithm 1, Case 1).
const UnknownParallelism = -1

// Decision is Algorithm 1's verdict for a freed slot.
type Decision int

// Decisions.
const (
	// Release returns the slot to the cluster's free pool.
	Release Decision = iota + 1
	// Reserve holds the slot for the job's downstream phase at the
	// job's priority.
	Reserve
)

func (d Decision) String() string {
	switch d {
	case Release:
		return "release"
	case Reserve:
		return "reserve"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Config selects and parameterizes the reservation policy.
type Config struct {
	// Enabled turns speculative slot reservation on. When false every
	// decision is Release and the scheduler is purely work conserving.
	Enabled bool
	// IsolationP in (0, 1] is the operator's isolation guarantee: the
	// probability that a phase retains its slots through the barrier
	// (Eq. 2). P = 1 disables the reservation deadline entirely.
	IsolationP float64
	// Alpha is the operator's estimate of the Pareto shape of task
	// durations, used to derive the reservation deadline. Typical
	// production values fall in [1, 2]; it must exceed 1 for a finite
	// deadline model.
	Alpha float64
	// PreReserveThreshold is the paper's R: the fraction of completed
	// tasks in the current phase beyond which pre-reservation of the
	// extra n-m slots starts (Algorithm 1, Case 2.3).
	PreReserveThreshold float64
	// MitigateStragglers turns reserved slots into straggler mitigators
	// (Sec. IV-C).
	MitigateStragglers bool
}

// DefaultConfig returns SSR with strict isolation (P = 1, no deadline),
// the paper's default pre-reservation threshold, and straggler mitigation
// off.
func DefaultConfig() Config {
	return Config{
		Enabled:             true,
		IsolationP:          1.0,
		Alpha:               1.6,
		PreReserveThreshold: 0.5,
	}
}

// Disabled returns the work-conserving baseline configuration.
func Disabled() Config { return Config{} }

// Validate checks the configuration's parameter ranges.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.IsolationP <= 0 || c.IsolationP > 1 || math.IsNaN(c.IsolationP) {
		return fmt.Errorf("core: isolation P %v must be in (0, 1]", c.IsolationP)
	}
	if c.IsolationP < 1 && c.Alpha <= 1 {
		return fmt.Errorf("core: alpha %v must exceed 1 to derive a finite deadline", c.Alpha)
	}
	if c.PreReserveThreshold < 0 || c.PreReserveThreshold > 1 || math.IsNaN(c.PreReserveThreshold) {
		return fmt.Errorf("core: pre-reserve threshold %v must be in [0, 1]", c.PreReserveThreshold)
	}
	return nil
}

// PhaseTracker applies Algorithm 1 to one phase of one job. The driver
// keeps one tracker per running phase and reports every completion.
type PhaseTracker struct {
	cfg   Config
	m     int  // parallelism of the current phase
	n     int  // downstream parallelism, or UnknownParallelism
	final bool // no downstream phase

	finished      int
	releasesLeft  int // only meaningful when n known and m > n
	preReserved   bool
	deadlineOver  bool
	deadlineArmed bool
}

// NewPhaseTracker builds the tracker for a phase with m parallel tasks and
// downstream parallelism n (UnknownParallelism if not known a priori).
// final marks phases with no downstream computation.
func NewPhaseTracker(cfg Config, m, n int, final bool) (*PhaseTracker, error) {
	t := new(PhaseTracker)
	if err := t.Init(cfg, m, n, final); err != nil {
		return nil, err
	}
	return t, nil
}

// Init resets t in place to a fresh tracker for the given phase — what
// NewPhaseTracker returns — for callers that embed trackers by value in a
// larger block. On error t is left untouched.
func (t *PhaseTracker) Init(cfg Config, m, n int, final bool) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if m <= 0 {
		return fmt.Errorf("core: phase parallelism %d must be positive", m)
	}
	if n < 0 && n != UnknownParallelism {
		return fmt.Errorf("core: downstream parallelism %d invalid", n)
	}
	*t = PhaseTracker{cfg: cfg, m: m, n: n, final: final}
	if !final && n != UnknownParallelism && m > n {
		t.releasesLeft = m - n
	}
	return nil
}

// Finished returns the number of completed tasks observed so far.
func (t *PhaseTracker) Finished() int { return t.finished }

// Done reports whether all m tasks have completed (the barrier is clear).
func (t *PhaseTracker) Done() bool { return t.finished >= t.m }

// HandleCompletion implements Algorithm 1's HandleTaskCompletion for the
// slot that ran the completing task. It returns the slot decision and the
// number of extra slots to pre-reserve (non-zero at most once per phase,
// when the completed fraction first exceeds the threshold R in the m < n
// case).
func (t *PhaseTracker) HandleCompletion() (Decision, int) {
	t.finished++
	if !t.cfg.Enabled || t.final || t.deadlineOver {
		return Release, 0
	}
	switch {
	case t.n == UnknownParallelism || t.m == t.n:
		// Case 1 / Case 2.1: reserve every slot.
		return Reserve, 0
	case t.m > t.n:
		// Case 2.2: let go the first m-n slots that become idle.
		if t.releasesLeft > 0 {
			t.releasesLeft--
			return Release, 0
		}
		return Reserve, 0
	default:
		// Case 2.3 (m < n): reserve, and pre-reserve the extra n-m
		// slots once the phase progress passes R.
		extra := 0
		if !t.preReserved && t.fraction() > t.cfg.PreReserveThreshold {
			t.preReserved = true
			extra = t.n - t.m
		}
		return Reserve, extra
	}
}

// HandleExtraSlotFreed decides the fate of an additional slot vacated by
// the same task completion (the killed attempt of a task whose speculative
// copy won, or vice versa). It follows the same release-budget accounting
// as HandleCompletion but does not advance the finished count.
func (t *PhaseTracker) HandleExtraSlotFreed() Decision {
	if !t.cfg.Enabled || t.final || t.deadlineOver {
		return Release
	}
	if t.n != UnknownParallelism && t.m > t.n && t.releasesLeft > 0 {
		t.releasesLeft--
		return Release
	}
	return Reserve
}

// fraction returns the completed-task fraction of the phase.
func (t *PhaseTracker) fraction() float64 { return float64(t.finished) / float64(t.m) }

// Deadline returns the reservation deadline for this phase, measured from
// the phase start, derived from the duration of the phase's first-finishing
// task (the paper's t_m estimator). ok is false when no deadline applies:
// SSR disabled, P = 1 (hold until the barrier), or a final phase (nothing
// to reserve for). Deadline may be called once the first task completes;
// it returns the same value thereafter.
func (t *PhaseTracker) Deadline(firstTaskDuration time.Duration) (time.Duration, bool) {
	return t.DeadlineWith(firstTaskDuration, t.cfg.IsolationP, t.cfg.Alpha)
}

// DeadlineWith derives the reservation deadline from explicit Eq. 3 knobs
// instead of the tracker's static configuration — the actuator half of
// the adaptive control loop, which re-derives P and alpha from estimator
// snapshots per completion. The gating rules are identical to Deadline's.
func (t *PhaseTracker) DeadlineWith(firstTaskDuration time.Duration, p, alpha float64) (time.Duration, bool) {
	if !t.cfg.Enabled || t.final || p >= 1 {
		return 0, false
	}
	t.deadlineArmed = true
	tm := firstTaskDuration.Seconds()
	d := model.Deadline(p, tm, alpha, t.m)
	if math.IsNaN(d) || math.IsInf(d, 1) {
		return 0, false
	}
	return time.Duration(d * float64(time.Second)), true
}

// ExpireDeadline records that the reservation deadline passed before the
// barrier cleared: reserved slots are released by the caller, and all
// subsequent decisions for this phase degrade to Release.
func (t *PhaseTracker) ExpireDeadline() { t.deadlineOver = true }

// DeadlineExpired reports whether the deadline fired for this phase.
func (t *PhaseTracker) DeadlineExpired() bool { return t.deadlineOver }

// ShouldMitigate reports whether straggler mitigation should launch copies
// now: the reserved-idle slots can cover every on-going task (Sec. IV-C).
// ongoing counts unfinished tasks currently running without a copy plus
// those already duplicated; reservedIdle counts the job's reserved, idle
// slots.
func (t *PhaseTracker) ShouldMitigate(ongoing, reservedIdle int) bool {
	if !t.cfg.Enabled || !t.cfg.MitigateStragglers || t.deadlineOver {
		return false
	}
	return ongoing > 0 && reservedIdle >= ongoing
}
