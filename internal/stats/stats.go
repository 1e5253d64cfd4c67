// Package stats provides the small statistical toolkit used throughout
// the SpMV tuner: means, medians, deviations and percentiles, and
// SecondsPerCall, the one primitive every per-call kernel timing goes
// through (the warm-cache methodology of the paper's Section IV-A).
package stats

import (
	"math"
	"sort"
	"time"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeometricMean returns the geometric mean of xs, or 0 for an empty
// slice or any non-positive entry.
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Median returns the median of xs without modifying it, or 0 for an
// empty slice. For even lengths it returns the mean of the two middle
// values.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// StdDev returns the population standard deviation of xs (the paper's
// Table I uses population, not sample, deviations).
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks, or 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// MinInt returns the minimum of xs, or 0 for an empty slice.
func MinInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// SecondsPerCall times op under warm caches: one untimed call, then
// reps timed loops of n back-to-back calls each. It returns the
// fastest loop's seconds per call, so a loop that a stall or a
// preemption slowed does not count. A reps or n below 1 counts as 1.
func SecondsPerCall(reps, n int, op func()) float64 {
	reps, n = max(reps, 1), max(n, 1)
	op()
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		best = min(best, time.Since(start).Seconds())
	}
	return best / float64(n)
}
