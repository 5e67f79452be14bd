package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewPowerLawValidation(t *testing.T) {
	tests := []struct {
		name     string
		min, max int
		alpha    float64
	}{
		{"zero-min", 0, 10, 2.5},
		{"inverted", 10, 5, 2.5},
		{"zero-alpha", 1, 10, 0},
		{"nan-alpha", 1, 10, math.NaN()},
		{"inf-alpha", 1, 10, math.Inf(1)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewPowerLaw(tc.min, tc.max, tc.alpha); err == nil {
				t.Errorf("NewPowerLaw(%d,%d,%v) succeeded, want error", tc.min, tc.max, tc.alpha)
			}
		})
	}
}

func TestPowerLawSupport(t *testing.T) {
	pl, err := NewPowerLaw(3, 40, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	r := New(17)
	for i := 0; i < 10000; i++ {
		d := pl.Sample(r)
		if d < 3 || d > 40 {
			t.Fatalf("sample %d outside [3, 40]", d)
		}
	}
}

func TestPowerLawEmpiricalMeanMatchesAnalytic(t *testing.T) {
	pl, err := NewPowerLaw(5, 200, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	r := New(23)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(pl.Sample(r))
	}
	mean := sum / n
	if math.Abs(mean-pl.Mean()) > 0.03*pl.Mean() {
		t.Errorf("empirical mean %v, analytic %v", mean, pl.Mean())
	}
}

func TestPowerLawShape(t *testing.T) {
	// With alpha=2.5, P(D=2)/P(D=1) = 2^-2.5.
	pl, err := NewPowerLaw(1, 100, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	r := New(29)
	counts := make(map[int]int)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[pl.Sample(r)]++
	}
	ratio := float64(counts[2]) / float64(counts[1])
	want := math.Pow(2, -2.5)
	if math.Abs(ratio-want) > 0.02 {
		t.Errorf("P(2)/P(1) = %v, want ~%v", ratio, want)
	}
}

func TestPowerLawForMean(t *testing.T) {
	// The paper's overlay: alpha=2.5, mean degree ~20.
	pl, err := PowerLawForMean(500, 2.5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pl.Mean()-20) > 4 {
		t.Errorf("PowerLawForMean mean = %v, want within 4 of 20", pl.Mean())
	}
	if pl.Min() < 1 || pl.Max() != 500 {
		t.Errorf("unexpected support [%d, %d]", pl.Min(), pl.Max())
	}
}

func TestPowerLawForMeanRejectsImpossible(t *testing.T) {
	if _, err := PowerLawForMean(10, 2.5, 50); err == nil {
		t.Error("expected error for unreachable mean")
	}
	if _, err := PowerLawForMean(10, 2.5, 0.5); err == nil {
		t.Error("expected error for mean below 1")
	}
}

func TestPowerLawMeanMonotoneInCutoff(t *testing.T) {
	// Property used by the PowerLawForMean early-exit: the bounded mean is
	// increasing in the lower cutoff.
	prev := 0.0
	for min := 1; min <= 50; min++ {
		pl, err := NewPowerLaw(min, 60, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Mean() <= prev {
			t.Fatalf("mean not increasing at min=%d: %v <= %v", min, pl.Mean(), prev)
		}
		prev = pl.Mean()
	}
}

func TestPowerLawCDFProperty(t *testing.T) {
	// Property test: any valid parametrization yields samples in support and
	// an analytic mean inside [min, max].
	f := func(minSeed, widthSeed uint8, alphaSeed uint8) bool {
		min := int(minSeed%20) + 1
		max := min + int(widthSeed%50)
		alpha := 0.5 + float64(alphaSeed%40)/10
		pl, err := NewPowerLaw(min, max, alpha)
		if err != nil {
			return false
		}
		// Tolerance: a degenerate support [d, d] computes mean as
		// (d*w)/w, which can round a few ulps past d.
		if pl.Mean() < float64(min)-1e-9 || pl.Mean() > float64(max)+1e-9 {
			return false
		}
		r := New(int64(minSeed)*7919 + int64(widthSeed))
		for i := 0; i < 50; i++ {
			d := pl.Sample(r)
			if d < min || d > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refPowerLaw is the sampler table as NewPowerLaw computed it before the
// shared weight table: one pass of d^-alpha, running totals and the mean,
// then normalization. It pins the floating-point order.
func refPowerLaw(min, max int, alpha float64) (cdf []float64, mean float64) {
	cdf = make([]float64, max-min+1)
	var total, weightedTotal float64
	for i := range cdf {
		d := float64(min + i)
		w := math.Pow(d, -alpha)
		total += w
		weightedTotal += d * w
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[len(cdf)-1] = 1
	return cdf, weightedTotal / total
}

// refPowerLawForMean is the cutoff search before the shared weight table:
// one full table per candidate cutoff. It returns the chosen cutoff.
func refPowerLawForMean(max int, alpha, targetMean float64) int {
	best, bestGap := 0, math.Inf(1)
	for min := 1; min <= max; min++ {
		_, mean := refPowerLaw(min, max, alpha)
		if gap := math.Abs(mean - targetMean); gap < bestGap {
			best, bestGap = min, gap
		}
		if mean > targetMean {
			break
		}
	}
	return best
}

// TestPowerLawForMeanBitIdentical sweeps (max, alpha, targetMean): the
// shared-table search must pick the per-candidate search's cutoff, and
// both it and NewPowerLaw on that support must return the reference CDF
// and mean bit for bit.
func TestPowerLawForMeanBitIdentical(t *testing.T) {
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, max := range []int{1, 2, 3, 10, 99, 999, 9999} {
		for _, alpha := range []float64{0.5, 1, 1.5, 2, 2.5, 3, 4.5} {
			for _, mean := range []float64{1, 1.5, 2, 3.7, 8, 20, 50, 400} {
				if mean > float64(max) {
					continue
				}
				got, err := PowerLawForMean(max, alpha, mean)
				if err != nil {
					t.Fatalf("PowerLawForMean(%d, %v, %v): %v", max, alpha, mean, err)
				}
				if min := refPowerLawForMean(max, alpha, mean); got.Min() != min {
					t.Fatalf("PowerLawForMean(%d, %v, %v) chose min %d, reference %d", max, alpha, mean, got.Min(), min)
				}
				want, err := NewPowerLaw(got.Min(), max, alpha)
				if err != nil {
					t.Fatal(err)
				}
				refCDF, refMean := refPowerLaw(got.Min(), max, alpha)
				for _, pl := range []*PowerLaw{got, want} {
					if math.Float64bits(pl.Mean()) != math.Float64bits(refMean) || !same(pl.cdf, refCDF) {
						t.Fatalf("(%d, %v, %v) min %d: mean %v or CDF differs from the reference (mean %v)",
							max, alpha, mean, got.Min(), pl.Mean(), refMean)
					}
				}
			}
		}
	}
}

// TestPowerLawForMeanAllocs bounds the cutoff search's allocations: the
// weight table (which becomes the CDF) and the sampler, however many
// candidate cutoffs lose. A per-candidate table would allocate per
// candidate.
func TestPowerLawForMeanAllocs(t *testing.T) {
	pl, err := PowerLawForMean(100_000, 2.5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Min() < 5 {
		t.Fatalf("chosen min %d: want several losing candidates", pl.Min())
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := PowerLawForMean(100_000, 2.5, 20); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("PowerLawForMean allocates %v times with %d losing cutoffs, want <= 2", allocs, pl.Min()-1)
	}
}
