package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// This file holds the estimation side of the package: maximum-likelihood
// fits for the distributions the trace pipeline models (exponential
// inter-arrival gaps, Pareto task durations) and an empirical-quantile
// distribution that replays a sample when no parametric family fits.

// FitExponential returns the maximum-likelihood exponential fit of a
// sample: rate = 1/mean. Samples must be positive.
func FitExponential(samples []float64) (Exponential, error) {
	if len(samples) == 0 {
		return Exponential{}, fmt.Errorf("stats: exponential fit needs at least one sample")
	}
	var sum float64
	for _, x := range samples {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Exponential{}, fmt.Errorf("stats: exponential fit sample %v must be a positive finite number", x)
		}
		sum += x
	}
	mean := sum / float64(len(samples))
	return Exponential{Rate: 1 / mean}, nil
}

// FitPareto returns the maximum-likelihood Pareto (type I) fit of a sample:
// xm is the sample minimum and alpha = n / sum(ln(x_i/xm)). A degenerate
// sample (fewer than two points, or all points equal, which drives the MLE
// shape to infinity) is an error — callers should fall back to an empirical
// fit.
func FitPareto(samples []float64) (Pareto, error) {
	if len(samples) < 2 {
		return Pareto{}, fmt.Errorf("stats: pareto fit needs at least two samples, got %d", len(samples))
	}
	xm := math.Inf(1)
	for _, x := range samples {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Pareto{}, fmt.Errorf("stats: pareto fit sample %v must be a positive finite number", x)
		}
		if x < xm {
			xm = x
		}
	}
	var logSum float64
	for _, x := range samples {
		logSum += math.Log(x / xm)
	}
	if logSum <= 0 {
		return Pareto{}, fmt.Errorf("stats: pareto fit is degenerate (all %d samples equal %v)", len(samples), xm)
	}
	return Pareto{Alpha: float64(len(samples)) / logSum, Xm: xm}, nil
}

// Empirical is the empirical-quantile distribution of a sample: sampling
// draws a uniform probability and inverts the empirical CDF with linear
// interpolation between order statistics. It is the non-parametric fallback
// when neither the exponential nor the Pareto family fits a trace.
type Empirical struct {
	sorted []float64
	mean   float64
}

// NewEmpirical builds the empirical distribution of a sample of
// non-negative finite values. The sample is copied and sorted.
func NewEmpirical(samples []float64) (Empirical, error) {
	if len(samples) == 0 {
		return Empirical{}, fmt.Errorf("stats: empirical distribution needs at least one sample")
	}
	sorted := make([]float64, len(samples))
	var sum float64
	for i, x := range samples {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Empirical{}, fmt.Errorf("stats: empirical sample %v must be a non-negative finite number", x)
		}
		sorted[i] = x
		sum += x
	}
	sort.Float64s(sorted)
	return Empirical{sorted: sorted, mean: sum / float64(len(sorted))}, nil
}

// N returns the sample size.
func (e Empirical) N() int { return len(e.sorted) }

// Sample draws via inverse-transform sampling of the empirical CDF.
func (e Empirical) Sample(r *rand.Rand) float64 { return e.Quantile(r.Float64()) }

// Quantile returns the value at probability p by linear interpolation
// between closest order statistics (the Percentile convention).
func (e Empirical) Quantile(p float64) float64 { return Percentile(e.sorted, p) }

// CDF returns the empirical fraction of the sample at or below x.
func (e Empirical) CDF(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with sorted[i] > x; that count is |{x_i <= x}|.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Mean returns the sample mean.
func (e Empirical) Mean() float64 { return e.mean }

func (e Empirical) String() string {
	return fmt.Sprintf("Empirical(n=%d, mean=%g)", len(e.sorted), e.mean)
}

// MaxKSAccept is the fit-acceptance gate shared by the trace fitter and the
// online tail estimator: a parametric fit whose KSDistance to its sample
// exceeds it is rejected (the fitter falls back to Empirical, the estimator
// keeps its previous knobs).
const MaxKSAccept = 0.15

// KSDistance returns the Kolmogorov–Smirnov statistic between a sample and
// a distribution with an analytic CDF: the supremum over the sample points
// of |F_n(x) - F(x)|. The trace fitter uses it to pick between candidate
// parametric fits and to decide when to fall back to Empirical. The input
// need not be sorted; it is copied.
func KSDistance(samples []float64, dist CDFer) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	var sup float64
	for i, x := range sorted {
		f := dist.CDF(x)
		// The empirical CDF jumps from i/n to (i+1)/n at x; the supremum
		// of the difference is attained at one side of the jump.
		lo := math.Abs(f - float64(i)/float64(n))
		hi := math.Abs(f - float64(i+1)/float64(n))
		if lo > sup {
			sup = lo
		}
		if hi > sup {
			sup = hi
		}
	}
	return sup
}

// Compile-time interface checks for the empirical distribution.
var (
	_ Distribution = Empirical{}
	_ Quantiler    = Empirical{}
	_ CDFer        = Empirical{}
)
