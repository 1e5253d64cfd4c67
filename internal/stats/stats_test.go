package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12*(1+math.Abs(a)+math.Abs(b)) }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %g, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %g, want 0", got)
	}
}

func TestGeometricMean(t *testing.T) {
	if got := GeometricMean([]float64{1, 4}); !almostEq(got, 2) {
		t.Fatalf("GeometricMean = %g, want 2", got)
	}
	if got := GeometricMean([]float64{-1, 4}); got != 0 {
		t.Fatalf("GeometricMean with negative = %g, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("odd Median = %g, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even Median = %g, want 2.5", got)
	}
	xs := []float64{9, 1, 5}
	Median(xs)
	if xs[0] != 9 {
		t.Fatal("Median mutated its input")
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 2, 2}); got != 0 {
		t.Fatalf("constant StdDev = %g, want 0", got)
	}
	if got := StdDev([]float64{1, 3}); !almostEq(got, 1) {
		t.Fatalf("StdDev = %g, want 1 (population)", got)
	}
}

func TestMinMax(t *testing.T) {
	if got := Max([]float64{3, -1, 7, 0}); got != 7 {
		t.Fatalf("Max = %g, want 7", got)
	}
	if got := MinInt([]int{4, 2, 9}); got != 2 {
		t.Fatalf("MinInt = %d, want 2", got)
	}
}

// SecondsPerCall's call count and result range; its clock readings
// themselves are the host's and are not asserted.
func TestSecondsPerCall(t *testing.T) {
	for _, c := range []struct{ reps, n, calls int }{
		{3, 4, 1 + 12},
		{0, 4, 1 + 4},
		{3, -1, 1 + 3},
		{-2, 0, 1 + 1},
	} {
		calls := 0
		secs := SecondsPerCall(c.reps, c.n, func() { calls++ })
		if calls != c.calls {
			t.Errorf("reps=%d n=%d: op called %d times, want %d", c.reps, c.n, calls, c.calls)
		}
		if math.IsNaN(secs) || math.IsInf(secs, 0) || secs < 0 {
			t.Errorf("reps=%d n=%d: %g seconds per call, want finite and >= 0", c.reps, c.n, secs)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Percentile(xs, 0); got != 10 {
		t.Fatalf("p0 = %g", got)
	}
	if got := Percentile(xs, 100); got != 40 {
		t.Fatalf("p100 = %g", got)
	}
	if got := Percentile(xs, 50); got != 25 {
		t.Fatalf("p50 = %g, want 25 (interpolated)", got)
	}
}

// Property of the means: geometric <= arithmetic on positive inputs.
func TestMeanInequalityQuick(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				// Strictly positive and bounded, so the logarithms
				// and the sum stay far from rounding trouble.
				xs = append(xs, 1+math.Mod(math.Abs(x), 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		const eps = 1e-9
		return GeometricMean(xs) <= Mean(xs)*(1+eps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneQuick(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo := math.Mod(math.Abs(p1), 100)
		hi := math.Mod(math.Abs(p2), 100)
		if lo > hi {
			lo, hi = hi, lo
		}
		a, b := Percentile(xs, lo), Percentile(xs, hi)
		return a <= b && a >= slices.Min(xs) && b <= Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
