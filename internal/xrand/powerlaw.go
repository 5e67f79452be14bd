package xrand

import (
	"fmt"
	"math"
	"sort"
)

// PowerLaw samples integers D in [Min, Max] with P(D) proportional to
// D^-Alpha. The paper's scale-free overlays draw peer degrees from such a
// bounded power law with shape Alpha = 2.5 and a Min chosen so that the mean
// degree is 20 (Sec. VI).
//
// Sampling inverts a precomputed CDF table with binary search, so draws cost
// O(log(Max-Min)).
type PowerLaw struct {
	min, max int
	alpha    float64
	cdf      []float64 // cdf[i] = P(D <= min+i)
	mean     float64
}

// NewPowerLaw builds a bounded discrete power-law sampler. It returns an
// error when the support is empty or alpha is not a finite positive number.
func NewPowerLaw(min, max int, alpha float64) (*PowerLaw, error) {
	if min < 1 || max < min {
		return nil, fmt.Errorf("xrand: invalid power-law support [%d, %d]", min, max)
	}
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	return powerLawOver(min, max, alpha, powerWeights(min, max, alpha)), nil
}

func checkAlpha(alpha float64) error {
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return fmt.Errorf("xrand: invalid power-law shape %v", alpha)
	}
	return nil
}

// powerWeights returns the unnormalized weights d^-alpha for d in
// [min, max].
func powerWeights(min, max int, alpha float64) []float64 {
	w := make([]float64, max-min+1)
	for i := range w {
		w[i] = math.Pow(float64(min+i), -alpha)
	}
	return w
}

// weightSums returns the total of the weights w[i] of d = min+i and the
// mean of d under them, summed in ascending d. Every sampler and every
// PowerLawForMean candidate sums in this one order, so equal supports get
// bit-identical results.
func weightSums(min int, w []float64) (total, mean float64) {
	var weighted float64
	for i, wi := range w {
		total += wi
		weighted += float64(min+i) * wi
	}
	return total, weighted / total
}

// powerLawOver builds the sampler on [min, max] from its weights w,
// turning w into the CDF in place.
func powerLawOver(min, max int, alpha float64, w []float64) *PowerLaw {
	total, mean := weightSums(min, w)
	var run float64
	for i, wi := range w {
		run += wi
		w[i] = run / total
	}
	w[len(w)-1] = 1 // guard against rounding
	return &PowerLaw{min: min, max: max, alpha: alpha, cdf: w, mean: mean}
}

// Mean returns the exact mean of the bounded distribution.
func (p *PowerLaw) Mean() float64 { return p.mean }

// Min returns the smallest value in the support.
func (p *PowerLaw) Min() int { return p.min }

// Max returns the largest value in the support.
func (p *PowerLaw) Max() int { return p.max }

// Alpha returns the shape parameter.
func (p *PowerLaw) Alpha() float64 { return p.alpha }

// Sample draws one value.
func (p *PowerLaw) Sample(r *RNG) int {
	u := r.Float64()
	i := sort.SearchFloat64s(p.cdf, u)
	if i >= len(p.cdf) {
		i = len(p.cdf) - 1
	}
	return p.min + i
}

// PowerLawForMean searches for the bounded power law D^-alpha on
// [min, max] whose mean is closest to targetMean, by sweeping the lower
// bound min upward from 1. The paper fixes alpha=2.5, max, and a mean of 20;
// the free parameter is the cutoff. It returns an error if even min=max
// cannot reach targetMean.
//
// The weights are computed once for [1, max]; each candidate cutoff only
// re-sums the table's tail, and the chosen one's CDF is built in place.
// The result is bit-identical to NewPowerLaw(min, max, alpha).
func PowerLawForMean(max int, alpha, targetMean float64) (*PowerLaw, error) {
	if targetMean < 1 || float64(max) < targetMean {
		return nil, fmt.Errorf("xrand: target mean %v outside [1, %d]", targetMean, max)
	}
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	w := powerWeights(1, max, alpha)
	best, bestGap := 0, math.Inf(1)
	for min := 1; min <= max; min++ {
		_, mean := weightSums(min, w[min-1:])
		if gap := math.Abs(mean - targetMean); gap < bestGap {
			best, bestGap = min, gap
		}
		// Mean is monotone increasing in the lower cutoff; once we have
		// passed the target the gap only grows.
		if mean > targetMean {
			break
		}
	}
	if best == 0 {
		return nil, fmt.Errorf("xrand: no power law on [1, %d] reaches mean %v", max, targetMean)
	}
	return powerLawOver(best, max, alpha, w[best-1:]), nil
}
