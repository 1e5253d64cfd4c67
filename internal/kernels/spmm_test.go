package kernels

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// blockRef computes the reference output block via per-vector MulVec.
func blockRef(m *matrix.CSR, x []float64, k int) []float64 {
	want := make([]float64, m.NRows*k)
	xv := make([]float64, m.NCols)
	yv := make([]float64, m.NRows)
	for l := 0; l < k; l++ {
		for j := 0; j < m.NCols; j++ {
			xv[j] = x[j*k+l]
		}
		m.MulVec(xv, yv)
		for i := 0; i < m.NRows; i++ {
			want[i*k+l] = yv[i]
		}
	}
	return want
}

func randBlock(n, k int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n*k)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func checkBlock(t *testing.T, label string, got, want []float64, k int) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("%s k=%d: y[%d] = %g, want %g", label, k, i, got[i], want[i])
		}
	}
}

// TestCSRBlockRangeAllWidths covers both register-blocked widths
// (4, 8) against the per-vector reference, including a mid-matrix row
// range, and checks that every other width is refused.
func TestCSRBlockRangeAllWidths(t *testing.T) {
	m := gen.PowerLaw(300, 6, 1.9, 100, 17)
	for _, k := range []int{1, 2, 3, 5, 9} {
		x := randBlock(m.NCols, k, int64(k))
		y := make([]float64, m.NRows*k)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("CSRBlockRange accepted k=%d", k)
				}
			}()
			CSRBlockRange(m, x, y, k, 0, m.NRows)
		}()
	}
	for _, k := range []int{4, 8} {
		x := randBlock(m.NCols, k, int64(k))
		want := blockRef(m, x, k)
		y := make([]float64, m.NRows*k)
		CSRBlockRange(m, x, y, k, 0, m.NRows)
		checkBlock(t, "full", y, want, k)

		// Partial range: only rows [50, 200) may be written.
		for i := range y {
			y[i] = math.NaN()
		}
		CSRBlockRange(m, x, y, k, 50, 200)
		for i := 50; i < 200; i++ {
			for l := 0; l < k; l++ {
				if math.Abs(y[i*k+l]-want[i*k+l]) > 1e-12*(1+math.Abs(want[i*k+l])) {
					t.Fatalf("range k=%d: y[%d][%d] wrong", k, i, l)
				}
			}
		}
		for i := 0; i < 50; i++ {
			if !math.IsNaN(y[i*k]) {
				t.Fatalf("range k=%d: wrote outside [50,200) at row %d", k, i)
			}
		}
	}
}
