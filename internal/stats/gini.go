// Package stats implements the inequality and distribution statistics the
// paper uses to quantify wealth condensation: the Gini index, Lorenz curves,
// histograms and summary statistics, both over samples (simulated wealth
// vectors) and over probability mass functions (the analytic marginals of
// Sec. V).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic is requested over no data.
var ErrEmpty = errors.New("stats: empty data")

// ErrNegative is returned when a wealth statistic receives negative values;
// Gini and Lorenz are defined here for non-negative quantities (credits).
var ErrNegative = errors.New("stats: negative value")

// Gini returns the Gini index of the sample in [0, 1]: 0 is perfect
// equality, values near 1 indicate extreme inequality (Sec. III-A). The
// paper uses it as the degree-of-condensation metric throughout Sec. V–VI.
//
// An all-zero sample is perfectly equal and yields 0. Negative values are an
// error. The input is not modified.
func Gini(values []float64) (float64, error) {
	sorted := make([]float64, len(values))
	copy(sorted, values)
	return GiniInPlace(sorted)
}

// GiniInPlace is Gini without the defensive copy: it sorts values in place
// and allocates nothing. Simulation hot loops that sample the Gini over a
// reused scratch buffer call this variant.
func GiniInPlace(values []float64) (float64, error) {
	n := len(values)
	if n == 0 {
		return 0, ErrEmpty
	}
	sort.Float64s(values)
	if values[0] < 0 {
		return 0, fmt.Errorf("%w: %v", ErrNegative, values[0])
	}
	var total, weighted float64
	for i, v := range values {
		total += v
		weighted += float64(2*(i+1)-n-1) * v
	}
	if total == 0 {
		return 0, nil
	}
	return weighted / (float64(n) * total), nil
}

// GiniInts is Gini over integer credit balances.
func GiniInts(values []int64) (float64, error) {
	g, _, err := GiniIntsInPlace(values, nil)
	return g, err
}

// GiniIntsInPlace is GiniInts for hot loops: the integer balances are
// widened into scratch (grown as needed) and sorted there, so repeated
// sampling allocates nothing once the scratch has reached steady size. It
// returns the possibly regrown scratch for the caller to keep. The input
// slice is not modified.
func GiniIntsInPlace(values []int64, scratch []float64) (float64, []float64, error) {
	if cap(scratch) < len(values) {
		scratch = make([]float64, len(values))
	}
	scratch = scratch[:len(values)]
	for i, v := range values {
		scratch[i] = float64(v)
	}
	g, err := GiniInPlace(scratch)
	return g, scratch, err
}

// GiniHist returns the Gini index of a population of integer balances given
// as histograms — hists[k][v] members hold balance v, summed over k — by one
// ascending walk over the balance domain. With cumulative count n< and mass
// m< below value v, each of the c_v members at v contributes v·n< − m< to
// the pairwise-difference sum D, and G = D / (n·S) for population n and
// total S. All accumulation is exact int64, so the result is bit-identical
// to GiniInPlace on the same balances (whose float sums are exact for
// integer data below 2^53). ok is false for an empty population.
func GiniHist(hists ...[]int64) (g float64, ok bool) {
	maxLen := 0
	for _, h := range hists {
		maxLen = max(maxLen, len(h))
	}
	var d, n, total int64
	for v := 0; v < maxLen; v++ {
		var c int64
		for _, h := range hists {
			if v < len(h) {
				c += h[v]
			}
		}
		if c == 0 {
			continue
		}
		d += c * (int64(v)*n - total)
		n += c
		total += c * int64(v)
	}
	if n == 0 {
		return 0, false
	}
	if total == 0 {
		return 0, true
	}
	return float64(d) / (float64(n) * float64(total)), true
}

// LorenzPoint is one point of a Lorenz curve: the bottom PopShare fraction
// of the population holds the WealthShare fraction of total wealth.
type LorenzPoint struct {
	PopShare    float64
	WealthShare float64
}

// Lorenz returns the Lorenz curve of the sample as n+1 points from (0,0) to
// (1,1), population sorted by increasing wealth (Sec. V-B1, Fig. 2). The
// input is not modified.
func Lorenz(values []float64) ([]LorenzPoint, error) {
	n := len(values)
	if n == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, n)
	copy(sorted, values)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		return nil, fmt.Errorf("%w: %v", ErrNegative, sorted[0])
	}
	var total float64
	for _, v := range sorted {
		total += v
	}
	points := make([]LorenzPoint, 0, n+1)
	points = append(points, LorenzPoint{})
	var cum float64
	for i, v := range sorted {
		cum += v
		share := 0.0
		if total > 0 {
			share = cum / total
		} else {
			share = float64(i+1) / float64(n) // equal shares of nothing
		}
		points = append(points, LorenzPoint{
			PopShare:    float64(i+1) / float64(n),
			WealthShare: share,
		})
	}
	return points, nil
}

// GiniFromLorenz integrates a Lorenz curve with the trapezoid rule to get
// the Gini index: the ratio of the area between the equality line and the
// curve to the total area under the equality line (Sec. V-B2).
func GiniFromLorenz(points []LorenzPoint) (float64, error) {
	if len(points) < 2 {
		return 0, ErrEmpty
	}
	var area float64
	for i := 1; i < len(points); i++ {
		dx := points[i].PopShare - points[i-1].PopShare
		if dx < 0 {
			return 0, fmt.Errorf("stats: Lorenz points not sorted at index %d", i)
		}
		area += dx * (points[i].WealthShare + points[i-1].WealthShare) / 2
	}
	return 1 - 2*area, nil
}

// PMF is a probability mass function over a non-negative integer support
// {0, 1, ..., len(P)-1}: P[k] is the probability of value k. The analytic
// wealth marginals of Sec. V (Eq. 6–8) are represented as PMFs.
type PMF []float64

// Validate checks that the PMF is non-negative and sums to 1 within tol.
func (p PMF) Validate(tol float64) error {
	if len(p) == 0 {
		return ErrEmpty
	}
	var sum float64
	for k, v := range p {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("stats: invalid probability %v at %d", v, k)
		}
		sum += v
	}
	if math.Abs(sum-1) > tol {
		return fmt.Errorf("stats: pmf sums to %v, want 1±%v", sum, tol)
	}
	return nil
}

// Mean returns the expectation of the PMF.
func (p PMF) Mean() float64 {
	var m float64
	for k, v := range p {
		m += float64(k) * v
	}
	return m
}

// Variance returns the variance of the PMF.
func (p PMF) Variance() float64 {
	m := p.Mean()
	var s float64
	for k, v := range p {
		d := float64(k) - m
		s += d * d * v
	}
	return s
}

// AtZero returns P{X = 0}; the paper's content-exchange efficiency is
// mu_i*(1 - Q{B_i=0}) (Eq. 9).
func (p PMF) AtZero() float64 {
	if len(p) == 0 {
		return 0
	}
	return p[0]
}

// GiniFromPMF computes the Gini index of a distribution given as a PMF in
// O(len(p)) using the discrete Lorenz curve. It treats the distribution as
// the wealth distribution of an infinite population.
func GiniFromPMF(p PMF) (float64, error) {
	if err := p.Validate(1e-6); err != nil {
		return 0, err
	}
	mean := p.Mean()
	if mean == 0 {
		return 0, nil
	}
	// G = 1 - 2*area under the Lorenz curve; each support value k with mass
	// prob contributes a trapezoid of width prob between the cumulative
	// wealth shares before and after it.
	var gini, cumW float64
	for k, prob := range p {
		if prob == 0 {
			continue
		}
		nextW := cumW + float64(k)*prob/mean
		gini += prob * (cumW + nextW)
		cumW = nextW
	}
	return 1 - gini, nil
}

// LorenzFromPMF returns the Lorenz curve of a PMF, one point per support
// value with positive mass, from (0,0) to (1,1). Fig. 2 plots these curves
// for the Eq. (8) marginal.
func LorenzFromPMF(p PMF) ([]LorenzPoint, error) {
	if err := p.Validate(1e-6); err != nil {
		return nil, err
	}
	mean := p.Mean()
	points := make([]LorenzPoint, 0, len(p)+1)
	points = append(points, LorenzPoint{})
	var cumP, cumW float64
	for k, prob := range p {
		if prob == 0 {
			continue
		}
		cumP += prob
		if mean > 0 {
			cumW += float64(k) * prob / mean
		} else {
			cumW = cumP
		}
		points = append(points, LorenzPoint{PopShare: cumP, WealthShare: math.Min(cumW, 1)})
	}
	last := points[len(points)-1]
	if last.PopShare < 1 || last.WealthShare < 1 {
		points = append(points, LorenzPoint{PopShare: 1, WealthShare: 1})
	}
	return points, nil
}
