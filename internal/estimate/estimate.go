// Package estimate closes the SSR control loop: streaming per-tenant,
// per-class estimators fed from the same task completions the decision
// audit records, producing the Eq. 3 knobs (Pareto tail index alpha, scale
// t_m, isolation level P) online instead of from static configuration.
//
// The package is the estimator stage of a sensor -> estimator -> actuator
// loop:
//
//   - sensor: the driver reports every finished task attempt
//     (ObserveTask), every submitted phase (ObservePhase) and every armed
//     deadline's outcome (ObserveOutcome).
//   - estimator: a sliding window per (tenant, class) is re-fit
//     periodically with the internal/stats Pareto MLE, accepted or
//     rejected by a Kolmogorov–Smirnov distance bound, and tracked for
//     tail-index stability across consecutive accepted fits. An EWMA of
//     observed deadline outcomes drives an integral controller on the
//     effective isolation level P.
//   - actuator: the driver re-derives the Eq. 3 deadline from Knobs and
//     caps straggler-mitigation copies with CopyBudget.
//
// Determinism: the registry advances only when its Observe* methods are
// called — all from inside engine events on the virtual clock, never from
// wall time — so an offline replay with an estimator attached is exactly
// reproducible, and a replay without one is bit-identical to a build
// without this package. The mutex only serializes online shard loops; an
// offline run is single-threaded through it.
package estimate

import (
	"sort"
	"strings"
	"sync"
	"time"

	"ssr/internal/stats"
)

// Config parameterizes the estimators. The zero value of any field is
// replaced by its default.
type Config struct {
	// Window is the per-class sliding-window size (task durations kept).
	Window int
	// MinSamples is the minimum window fill before the first fit.
	MinSamples int
	// RefitEvery re-fits a class after this many new observations.
	RefitEvery int
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 256
	}
	if c.MinSamples == 0 {
		c.MinSamples = 64
	}
	if c.RefitEvery == 0 {
		c.RefitEvery = 32
	}
	return c
}

const (
	// stabilityEps bounds the relative change between consecutive accepted
	// tail indices for the class to count as stable. Stability gates the
	// copy budget: speculative copies are only spent on a tail we trust.
	stabilityEps = 0.2
	// alphaMin and alphaMax clamp acceptable fitted tail indices. alphaMin
	// must stay above 1: Eq. 3 diverges as alpha -> 1 and the
	// Anselmi–Walton stability region for speculative copies requires a
	// finite mean.
	alphaMin, alphaMax = 1.05, 8
	// taskEWMABeta weights the per-class task-count EWMA update.
	taskEWMABeta = 0.2
	// holdEWMABeta weights the deadline-outcome (isolation) EWMA update.
	holdEWMABeta = 0.05
	// pGain is the integral gain of the effective-P controller: each
	// observed outcome nudges effective P by pGain*(target - holdEWMA),
	// clamped to [target, pMax].
	pGain = 0.05
	// pMax caps the effective isolation level so Eq. 3 deadlines stay
	// finite even when the controller saturates.
	pMax = 0.995
)

// Knobs are the estimator-derived Eq. 3 inputs for one class.
type Knobs struct {
	// Alpha is the last accepted Pareto tail index.
	Alpha float64
	// P is the effective isolation level (target plus controller offset).
	P float64
	// TmSec is the fitted Pareto scale (the window minimum), in seconds.
	// The deadline still uses the phase's own first-finisher t_m; the
	// fitted scale is exported for attribution and introspection.
	TmSec float64
}

// Adaptation records one re-fit: old -> new knob values, the window stats
// behind it, and why it was accepted or rejected. The driver turns each
// one into a typed audit event.
type Adaptation struct {
	Tenant string
	Class  string
	// Accepted reports whether the fit replaced the class's knobs.
	Accepted bool
	// Reason is "fit" for an accepted fit, else the rejection cause:
	// "degenerate", "ks" or "alpha_range".
	Reason string
	// KS is the Kolmogorov–Smirnov distance of the candidate fit.
	KS float64
	// Window is the number of samples behind the candidate fit.
	Window int

	OldAlpha, NewAlpha float64
	OldTmSec, NewTmSec float64
	OldP, NewP         float64
}

// Rejection reasons (Adaptation.Reason).
const (
	ReasonFit        = "fit"
	ReasonDegenerate = "degenerate"
	ReasonKS         = "ks"
	ReasonAlphaRange = "alpha_range"
)

type classKey struct {
	tenant, class string
}

// classState is the streaming estimator of one (tenant, class).
type classState struct {
	key classKey

	// win is a ring of the last Window task durations in seconds.
	win      []float64
	head     int
	filled   int
	observed uint64
	sinceFit int
	lastSec  float64

	// Last accepted fit.
	fitted    bool
	alpha     float64
	tmSec     float64
	ks        float64
	stable    bool
	fits      uint64
	rejects   uint64
	prevAlpha float64

	// Task-count EWMA over submitted phase parallelism.
	tasksEWMA float64
	haveTasks bool

	// Deadline-outcome controller state.
	targetP  float64
	effP     float64
	haveP    bool
	holdEWMA float64
	armed    uint64
	expired  uint64

	metrics *classMetrics
}

// Registry holds the estimators of every (tenant, class) seen. It is safe
// for concurrent use; offline runs drive it single-threaded so replays
// are exact.
type Registry struct {
	mu      sync.Mutex
	cfg     Config
	classes map[classKey]*classState
	order   []classKey
	scratch []float64
	export  *exporter
}

// New creates a registry with the given configuration (zero fields take
// defaults).
func New(cfg Config) *Registry {
	return &Registry{
		cfg:     cfg.withDefaults(),
		classes: make(map[classKey]*classState),
	}
}

func (r *Registry) class(tenant, class string) *classState {
	key := classKey{tenant: tenant, class: class}
	cs := r.classes[key]
	if cs == nil {
		cs = &classState{key: key, win: make([]float64, r.cfg.Window)}
		r.classes[key] = cs
		r.order = append(r.order, key)
		if r.export != nil {
			cs.metrics = r.export.forClass(key)
		}
	}
	return cs
}

// ObserveTask feeds one completed task attempt's service time into the
// class's sliding window. Every RefitEvery observations (once MinSamples
// have accumulated) the window is re-fit; the returned Adaptation (ok
// true) describes that fit so the caller can audit it.
func (r *Registry) ObserveTask(tenant, class string, dur time.Duration) (Adaptation, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := r.class(tenant, class)
	sec := dur.Seconds()
	cs.win[cs.head] = sec
	cs.head = (cs.head + 1) % len(cs.win)
	if cs.filled < len(cs.win) {
		cs.filled++
	}
	cs.observed++
	cs.sinceFit++
	cs.lastSec = sec
	if cs.metrics != nil {
		cs.metrics.observations.Inc()
	}
	if cs.filled < r.cfg.MinSamples || cs.sinceFit < r.cfg.RefitEvery {
		return Adaptation{}, false
	}
	return r.refitLocked(cs), true
}

// refitLocked re-fits cs's window and applies the accept/reject rules.
func (r *Registry) refitLocked(cs *classState) Adaptation {
	cs.sinceFit = 0
	r.scratch = append(r.scratch[:0], cs.win[:cs.filled]...)
	ad := Adaptation{
		Tenant:   cs.key.tenant,
		Class:    cs.key.class,
		Window:   cs.filled,
		OldAlpha: cs.alpha,
		OldTmSec: cs.tmSec,
		OldP:     cs.effP,
	}
	fit, err := stats.FitPareto(r.scratch)
	reason := ""
	switch {
	case err != nil:
		reason = ReasonDegenerate
	default:
		ad.KS = stats.KSDistance(r.scratch, fit)
		switch {
		case ad.KS > stats.MaxKSAccept:
			// The window does not look Pareto (e.g. a mid-drift mixture).
			reason = ReasonKS
		case fit.Alpha <= alphaMin || fit.Alpha > alphaMax:
			reason = ReasonAlphaRange
		}
	}
	if reason != "" {
		// Keep the previous knobs (stale beats garbage) but drop the
		// stability claim: the window stopped looking like the tail we
		// trusted, so the copy budget closes until fits agree again.
		cs.rejects++
		cs.stable = false
		ad.Accepted = false
		ad.Reason = reason
		ad.NewAlpha = cs.alpha
		ad.NewTmSec = cs.tmSec
		ad.NewP = cs.effP
		cs.publish()
		return ad
	}
	rel := 0.0
	if cs.fitted {
		rel = (fit.Alpha - cs.alpha) / cs.alpha
		if rel < 0 {
			rel = -rel
		}
	}
	cs.stable = cs.fitted && rel <= stabilityEps
	cs.prevAlpha = cs.alpha
	cs.alpha = fit.Alpha
	cs.tmSec = fit.Xm
	cs.ks = ad.KS
	cs.fitted = true
	cs.fits++
	ad.Accepted = true
	ad.Reason = ReasonFit
	ad.NewAlpha = cs.alpha
	ad.NewTmSec = cs.tmSec
	ad.NewP = cs.effP
	cs.publish()
	return ad
}

// ObservePhase feeds one submitted phase's degree of parallelism into the
// class's task-count EWMA.
func (r *Registry) ObservePhase(tenant, class string, parallelism int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := r.class(tenant, class)
	v := float64(parallelism)
	if !cs.haveTasks {
		cs.tasksEWMA = v
		cs.haveTasks = true
	} else {
		cs.tasksEWMA = taskEWMABeta*v + (1-taskEWMABeta)*cs.tasksEWMA
	}
	if cs.metrics != nil {
		cs.metrics.tasksEWMA.Set(cs.tasksEWMA)
	}
}

// ObserveOutcome feeds one armed deadline's outcome — expired before the
// barrier, or held through it — into the effective-P controller anchored
// at the class's configured isolation target.
func (r *Registry) ObserveOutcome(tenant, class string, targetP float64, expired bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := r.class(tenant, class)
	cs.anchor(targetP)
	cs.armed++
	held := 1.0
	if expired {
		held = 0
		cs.expired++
	}
	if cs.armed == 1 {
		cs.holdEWMA = held
	} else {
		cs.holdEWMA = holdEWMABeta*held + (1-holdEWMABeta)*cs.holdEWMA
	}
	// Integral action: chronic misses (holdEWMA below target) push the
	// effective P up, lengthening Eq. 3 deadlines; once observed isolation
	// meets the target the offset bleeds back toward the floor.
	cs.effP += pGain * (cs.targetP - cs.holdEWMA)
	if cs.effP < cs.targetP {
		cs.effP = cs.targetP
	}
	if cs.effP > pMax {
		cs.effP = pMax
	}
	cs.publish()
}

// anchor (re-)anchors the controller at the configured target. A changed
// target (operator reconfiguration) re-bases the floor but keeps the
// accumulated offset.
func (cs *classState) anchor(targetP float64) {
	if !cs.haveP {
		cs.targetP = targetP
		cs.effP = targetP
		cs.haveP = true
		return
	}
	if cs.targetP != targetP {
		cs.effP += targetP - cs.targetP
		cs.targetP = targetP
		if cs.effP < targetP {
			cs.effP = targetP
		}
		if cs.effP > pMax {
			cs.effP = pMax
		}
	}
}

// Knobs returns the estimator-derived Eq. 3 knobs for the class, anchored
// at the caller's configured isolation target. ok is false until the
// class has an accepted fit — the caller stays on static configuration.
func (r *Registry) Knobs(tenant, class string, targetP float64) (Knobs, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := r.class(tenant, class)
	if !cs.fitted {
		return Knobs{}, false
	}
	cs.anchor(targetP)
	return Knobs{Alpha: cs.alpha, P: cs.effP, TmSec: cs.tmSec}, true
}

// CopyBudget returns the maximum number of straggler-mitigation copies
// that may run concurrently for one phase of the class, given its current
// number of ongoing tasks. The budget is gated by the tail-index
// stability test: with no stable accepted fit it is 0 (don't spend slots
// duplicating against a tail we can't characterize — the Anselmi–Walton
// regime where speculation can destabilize). With a stable fit the budget
// scales with tail heaviness per Xu & Lau: a heavy tail (alpha near 1)
// duplicates everything, a light tail only a fraction.
func (r *Registry) CopyBudget(tenant, class string, ongoing int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := r.class(tenant, class)
	if !cs.fitted || !cs.stable || ongoing <= 0 {
		return 0
	}
	frac := 1 / (cs.alpha - 0.5)
	if frac >= 1 {
		return ongoing
	}
	budget := int(frac*float64(ongoing) + 0.999999)
	if budget < 1 {
		budget = 1
	}
	return budget
}

// ClassSnapshot is a point-in-time copy of one class's estimator state.
type ClassSnapshot struct {
	Tenant     string  `json:"tenant"`
	Class      string  `json:"class"`
	Observed   uint64  `json:"observed"`
	Window     int     `json:"window"`
	LastSec    float64 `json:"lastSec,omitempty"`
	Fitted     bool    `json:"fitted"`
	Alpha      float64 `json:"alpha,omitempty"`
	TmSec      float64 `json:"tmSec,omitempty"`
	KS         float64 `json:"ks,omitempty"`
	Stable     bool    `json:"stable"`
	Fits       uint64  `json:"fits"`
	Rejects    uint64  `json:"rejects"`
	TasksEWMA  float64 `json:"tasksEwma,omitempty"`
	TargetP    float64 `json:"targetP,omitempty"`
	EffectiveP float64 `json:"effectiveP,omitempty"`
	HoldEWMA   float64 `json:"holdEwma,omitempty"`
	Armed      uint64  `json:"deadlinesArmed"`
	Expired    uint64  `json:"deadlinesExpired"`
}

// Snapshot copies every class's state, sorted by (tenant, class) — a
// deterministic, JSON-friendly dump for /v1/estimators and CLI output.
func (r *Registry) Snapshot() []ClassSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := append([]classKey(nil), r.order...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tenant != keys[j].tenant {
			return keys[i].tenant < keys[j].tenant
		}
		return keys[i].class < keys[j].class
	})
	out := make([]ClassSnapshot, 0, len(keys))
	for _, key := range keys {
		cs := r.classes[key]
		out = append(out, ClassSnapshot{
			Tenant:     key.tenant,
			Class:      key.class,
			Observed:   cs.observed,
			Window:     cs.filled,
			LastSec:    cs.lastSec,
			Fitted:     cs.fitted,
			Alpha:      cs.alpha,
			TmSec:      cs.tmSec,
			KS:         cs.ks,
			Stable:     cs.stable,
			Fits:       cs.fits,
			Rejects:    cs.rejects,
			TasksEWMA:  cs.tasksEWMA,
			TargetP:    cs.targetP,
			EffectiveP: cs.effP,
			HoldEWMA:   cs.holdEWMA,
			Armed:      cs.armed,
			Expired:    cs.expired,
		})
	}
	return out
}

// ClassOf derives a workload class from a job name by stripping one
// trailing numeric instance suffix: "bg-17" -> "bg", "par-003" -> "par",
// while "kmeans" and "q7" are their own class. An empty name maps to
// "job".
func ClassOf(name string) string {
	if name == "" {
		return "job"
	}
	i := strings.LastIndexByte(name, '-')
	if i > 0 && i < len(name)-1 && allDigits(name[i+1:]) {
		return name[:i]
	}
	return name
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
