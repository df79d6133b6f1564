package traceload

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"ssr/internal/stats"
)

// The fitter turns a trace prefix into a generative per-class model: an
// inter-arrival distribution (the open-loop arrival process) and a
// task-duration distribution, each chosen from {exponential, Pareto} by
// Kolmogorov–Smirnov distance with an empirical-quantile fallback when
// neither parametric family fits, plus empirical job-shape statistics
// (task counts, multi-phase fraction, reduce-side ratio). The FittedSource
// in arrivals.go then samples the model indefinitely — the step that turns
// a bounded trace into an unbounded open-loop workload.

// Fit selection thresholds.
const (
	// minFitSamples is the sample size below which fitting goes straight
	// to the empirical fallback: MLE shape estimates on a handful of
	// points are noise.
	minFitSamples = 8
	// maxFitSamples caps the per-class samples the fitter retains, so
	// fitting a prefix of an arbitrarily long trace stays bounded.
	maxFitSamples = 100_000
)

// FitDistribution picks the best-fitting distribution for a positive
// sample: the exponential and Pareto MLEs compete on KS distance, and the
// empirical-quantile distribution wins when the sample is tiny or neither
// parametric family gets close. It returns the distribution, the kind
// label ("exp", "pareto" or "empirical") and the KS distance of the
// winner.
func FitDistribution(samples []float64) (stats.Distribution, string, float64, error) {
	if len(samples) == 0 {
		return nil, "", 0, fmt.Errorf("traceload: nothing to fit (empty sample)")
	}
	empirical := func() (stats.Distribution, string, float64, error) {
		e, err := stats.NewEmpirical(samples)
		if err != nil {
			return nil, "", 0, fmt.Errorf("traceload: empirical fallback: %w", err)
		}
		return e, "empirical", 0, nil
	}
	if len(samples) < minFitSamples {
		return empirical()
	}
	bestKS := math.Inf(1)
	var best stats.Distribution
	var bestKind string
	if exp, err := stats.FitExponential(samples); err == nil {
		if d := stats.KSDistance(samples, exp); d < bestKS {
			bestKS, best, bestKind = d, exp, "exp"
		}
	}
	if par, err := stats.FitPareto(samples); err == nil {
		if d := stats.KSDistance(samples, par); d < bestKS {
			bestKS, best, bestKind = d, par, "pareto"
		}
	}
	if best == nil || bestKS > stats.MaxKSAccept {
		return empirical()
	}
	return best, bestKind, bestKS, nil
}

// ClassModel is the fitted generative model of one workload class.
type ClassModel struct {
	// Class is the workload class label.
	Class string
	// Jobs is the number of prefix jobs the model was fitted on.
	Jobs int
	// Share is the class's fraction of all prefix arrivals; the fitted
	// source uses per-class IAT processes, so Share is informational.
	Share float64
	// Priority is the rounded mean priority of the class's jobs.
	Priority int
	// IAT is the fitted inter-arrival distribution (seconds).
	IAT stats.Distribution
	// IATKind labels the IAT fit ("exp", "pareto", "empirical").
	IATKind string
	// Duration is the fitted task-duration distribution (seconds).
	Duration stats.Distribution
	// DurationKind labels the duration fit.
	DurationKind string
	// TaskCounts is the empirical first-phase parallelism distribution.
	TaskCounts stats.Empirical
	// MultiPhase is the fraction of jobs with a second (reduce) phase.
	MultiPhase float64
	// ReduceRatio is the mean reduce/map parallelism ratio of multi-phase
	// jobs (0 when none were observed).
	ReduceRatio float64
}

// String summarizes the model for notes and logs.
func (m ClassModel) String() string {
	return fmt.Sprintf("%s: %d jobs (%.0f%%), iat=%s [%v], dur=%s [%v], tasks p50=%.0f, multiphase=%.0f%%",
		m.Class, m.Jobs, 100*m.Share, m.IATKind, m.IAT, m.DurationKind, m.Duration,
		m.TaskCounts.Quantile(0.5), 100*m.MultiPhase)
}

// Model is the fitted trace model: one ClassModel per workload class,
// sorted by class name for deterministic iteration.
type Model struct {
	Classes []ClassModel
}

// Class returns the model for a class label.
func (m *Model) Class(name string) (ClassModel, bool) {
	for _, c := range m.Classes {
		if c.Class == name {
			return c, true
		}
	}
	return ClassModel{}, false
}

// classAcc accumulates one class's prefix statistics.
type classAcc struct {
	jobs        int
	prioSum     int
	lastSubmit  time.Duration
	gaps        []float64 // seconds between successive arrivals
	durations   []float64 // task durations, seconds
	taskCounts  []float64 // first-phase parallelism
	multiPhase  int
	reduceRatio float64 // summed reduce/map ratios of multi-phase jobs
}

// Fitter streams trace records into per-class accumulators and fits the
// model on demand. Retained samples are capped (maxFitSamples per series)
// so memory stays bounded however long the prefix.
type Fitter struct {
	classes map[string]*classAcc
	order   []string // first-appearance order, for stable reporting
	jobs    int
}

// NewFitter returns an empty fitter.
func NewFitter() *Fitter {
	return &Fitter{classes: make(map[string]*classAcc)}
}

// Jobs returns the number of records consumed so far.
func (f *Fitter) Jobs() int { return f.jobs }

// Add folds one trace record into the per-class accumulators.
func (f *Fitter) Add(rec JobRecord) {
	acc := f.classes[rec.Class]
	if acc == nil {
		acc = &classAcc{}
		f.classes[rec.Class] = acc
		f.order = append(f.order, rec.Class)
	}
	if acc.jobs > 0 {
		gap := (rec.Submit - acc.lastSubmit).Seconds()
		if gap >= 0 && len(acc.gaps) < maxFitSamples {
			// Zero gaps (batch submissions) carry no rate information for
			// a continuous IAT model; nudge to a microsecond.
			if gap == 0 {
				gap = 1e-6
			}
			acc.gaps = append(acc.gaps, gap)
		}
	}
	acc.lastSubmit = rec.Submit
	acc.jobs++
	acc.prioSum += rec.Priority
	for _, ph := range rec.Durations {
		for _, d := range ph {
			if len(acc.durations) < maxFitSamples {
				acc.durations = append(acc.durations, d.Seconds())
			}
		}
	}
	if len(rec.Durations) > 0 && len(acc.taskCounts) < maxFitSamples {
		acc.taskCounts = append(acc.taskCounts, float64(len(rec.Durations[0])))
	}
	if len(rec.Durations) > 1 {
		acc.multiPhase++
		acc.reduceRatio += float64(len(rec.Durations[1])) / float64(len(rec.Durations[0]))
	}
	f.jobs++
}

// FitPrefix streams up to maxJobs records (0 = all) from a source into the
// fitter and returns the fitted model. The source is left positioned after
// the prefix, so a caller can keep replaying the remainder.
func (f *Fitter) FitPrefix(src Source, maxJobs int) (*Model, error) {
	for maxJobs <= 0 || f.jobs < maxJobs {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		f.Add(rec)
	}
	return f.Fit()
}

// Fit builds the model from everything accumulated so far.
func (f *Fitter) Fit() (*Model, error) {
	if f.jobs == 0 {
		return nil, fmt.Errorf("traceload: cannot fit an empty trace prefix")
	}
	m := &Model{}
	names := append([]string(nil), f.order...)
	sort.Strings(names)
	for _, name := range names {
		acc := f.classes[name]
		cm := ClassModel{
			Class:    name,
			Jobs:     acc.jobs,
			Share:    float64(acc.jobs) / float64(f.jobs),
			Priority: int(math.Round(float64(acc.prioSum) / float64(acc.jobs))),
		}
		if len(acc.gaps) == 0 {
			// A single arrival carries no rate information; fall back to
			// one arrival per trace-second so the class still generates.
			cm.IAT, cm.IATKind = stats.Exponential{Rate: 1}, "exp"
		} else {
			dist, kind, _, err := FitDistribution(acc.gaps)
			if err != nil {
				return nil, fmt.Errorf("traceload: class %s iat: %w", name, err)
			}
			cm.IAT, cm.IATKind = dist, kind
		}
		dist, kind, _, err := FitDistribution(acc.durations)
		if err != nil {
			return nil, fmt.Errorf("traceload: class %s durations: %w", name, err)
		}
		cm.Duration, cm.DurationKind = dist, kind
		counts, err := stats.NewEmpirical(acc.taskCounts)
		if err != nil {
			return nil, fmt.Errorf("traceload: class %s task counts: %w", name, err)
		}
		cm.TaskCounts = counts
		cm.MultiPhase = float64(acc.multiPhase) / float64(acc.jobs)
		if acc.multiPhase > 0 {
			cm.ReduceRatio = acc.reduceRatio / float64(acc.multiPhase)
		}
		m.Classes = append(m.Classes, cm)
	}
	return m, nil
}
