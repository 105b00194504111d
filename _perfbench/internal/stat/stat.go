// Package stat holds the order statistics the benchmark and its compare tool
// report: medians, quartiles computed exactly as Python's
// statistics.quantiles(values, n=4) computes them, and tail percentiles that
// are reported only when enough samples lie beyond them.
package stat

import (
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a tail percentile for it to
// be reported: a p90 needs at least 100 samples, a p99 at least 1000.
const MinBeyond = 10

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (the mean of the two middle values for an
// even count), or NaN for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) returns them (its default "exclusive"
// method). It needs at least two values; with fewer it returns NaNs.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := Sorted(xs)
	m := n + 1
	cut := func(i int) float64 {
		// Python clamps j and then takes delta from the clamped j, so the
		// outer cut points extrapolate on very small samples.
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the interquartile distance of xs as a share of its median: the
// run-to-run spread a benchmark bound is compared with. NaN when it cannot
// be computed (fewer than two values or a zero median).
func Spread(xs []float64) float64 {
	q1, _, q3 := Quartiles(xs)
	med := Median(xs)
	if med == 0 || math.IsNaN(med) {
		return math.NaN()
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// Percentile returns the nearest-rank p-quantile (0 < p < 1) of xs, and
// whether it may be reported: a percentile above the median needs at least
// MinBeyond samples beyond it. The median itself is always reportable on a
// non-empty sample.
func Percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return math.NaN(), false
	}
	s := Sorted(xs)
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	ok := p <= 0.5 || n-1-rank >= MinBeyond
	return s[rank], ok
}
