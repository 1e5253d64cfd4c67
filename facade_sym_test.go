package spmvtuner_test

// Facade-level symmetry coverage: the tuner must resolve a matrix's
// symmetry transparently at Tune/Analyze time and the tuned kernel —
// whatever storage the planner chose — must compute the same SpMV as
// the reference.

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sparsekit/spmvtuner"
)

// buildSymmetric assembles a symmetric banded matrix through the
// public Builder (so the symmetry kind starts unknown, exactly the
// programmatic path the facade's detection exists for).
func buildSymmetric(n, hw int) *spmvtuner.Matrix {
	return buildScaledSymmetric(n, hw, 1)
}

// buildScaledSymmetric is buildSymmetric with every value multiplied
// by s: the same structure, hence the same fingerprint.
func buildScaledSymmetric(n, hw int, s float64) *spmvtuner.Matrix {
	rng := rand.New(rand.NewSource(9))
	b := spmvtuner.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, (float64(hw)*2+1)*s)
		for d := 1; d <= hw; d++ {
			if j := i + d; j < n {
				v := (0.5 + rng.Float64()) * s
				b.Add(i, j, v)
				b.Add(j, i, v)
			}
		}
	}
	return b.Build()
}

func TestTunedSymmetricTransparent(t *testing.T) {
	m := buildSymmetric(3000, 12)
	tuner := spmvtuner.NewTuner()
	defer tuner.Close()
	tuned := tuner.Tune(m)

	rng := rand.New(rand.NewSource(4))
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, m.Rows())
	m.MulVec(x, want)
	got := make([]float64, m.Rows())
	tuned.MulVec(x, got)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("tuned symmetric-capable kernel diverged at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestAnalyzeProposesSymmetricOnModeledMB: on the Broadwell model a
// wide-band symmetric matrix classifies bandwidth bound, and the
// planner's joint optimization must include the symmetric storage
// knob — deterministic because the analysis is fully modeled.
func TestAnalyzeProposesSymmetricOnModeledMB(t *testing.T) {
	m := buildSymmetric(20000, 40)
	a := spmvtuner.NewTuner(spmvtuner.OnPlatform("bdw")).Analyze(m)
	if !containsSym(a.Optimizations) {
		t.Fatalf("modeled MB analysis of a symmetric matrix proposed %q, want a +sym configuration",
			a.Optimizations)
	}
}

func containsSym(opts string) bool {
	for i := 0; i+3 <= len(opts); i++ {
		if opts[i:i+3] == "sym" {
			return true
		}
	}
	return false
}
