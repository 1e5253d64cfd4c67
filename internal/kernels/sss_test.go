package kernels

import (
	"math"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// symTestMatrix builds an exactly symmetric matrix (A + Aᵀ over a
// random pattern) large enough that multi-thread partitions engage.
func symTestMatrix(n int, seed int64) *matrix.CSR {
	src := gen.UniformRandom(n, 4, seed)
	coo := matrix.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := src.RowPtr[i]; j < src.RowPtr[i+1]; j++ {
			c := int(src.ColInd[j])
			coo.Add(i, c, src.Val[j])
			if c != i {
				coo.Add(c, i, src.Val[j])
			}
		}
	}
	return coo.ToCSR()
}

// sssCases are the symmetric shapes the window kernels run on: a
// wide-profile random matrix (every row reaches below its range, so
// windows span nearly all earlier rows) and a banded Laplacian (only a
// bandwidth of rows at each range start takes the window branch).
func sssCases() map[string]*matrix.CSR {
	return map[string]*matrix.CSR{
		"random": symTestMatrix(700, 9),
		"lap2d":  gen.Poisson2D(20, 30),
	}
}

// sssParts splits n rows into nt equal ranges and returns them with
// their conflict windows.
func sssParts(s *formats.SSS, nt int) (parts, win []sched.Range) {
	parts = sched.PartitionRows(s.N, nt)
	return parts, formats.SymWindows(s.Lower, parts)
}

// TestSSSRangeTwoPhase runs the full parallel shape by hand — static
// partitions, per-thread conflict windows, then the serial fold — and
// compares against the mirrored-CSR reference. The fold is hand-rolled
// here; production uses the shared reduction engine in internal/native.
func TestSSSRangeTwoPhase(t *testing.T) {
	for name, m := range sssCases() {
		s := formats.ConvertSSS(m)
		x := vec(m.NCols, 3)
		want := make([]float64, m.NRows)
		m.MulVec(x, want)

		parts, win := sssParts(s, 4)
		got := make([]float64, m.NRows)
		windows := make([][]float64, len(parts))
		for tid, r := range parts {
			windows[tid] = make([]float64, win[tid].Rows())
			SSSRows(s, &s.Lower.Val, x, got, windows[tid], win[tid].Lo, r.Lo, r.Hi)
		}
		for tid, w := range win {
			for c, v := range windows[tid] {
				got[w.Lo+c] += v
			}
		}
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("%s: y[%d] = %g, want %g", name, i, got[i], want[i])
			}
		}
	}
}

// sssPoison marks cells a kernel must not write: finite, so that any
// accumulation into it changes its bits.
const sssPoison = 1234.5

// TestSSSRangeScatterPrefix pins the write contract: a range [lo, hi)
// writes only y[lo:hi) and window[0:lo-base). Every other cell of y
// and of an n-cell window is poisoned and must keep its bits, in both
// precisions.
func TestSSSRangeScatterPrefix(t *testing.T) {
	for name, m := range sssCases() {
		s := formats.ConvertSSS(m)
		v32 := formats.NarrowF32(s.Lower.Val)
		parts, win := sssParts(s, 3)
		x := vec(m.NCols, 71)
		run := map[string]func(y, window []float64, base, lo, hi int){
			"sss": func(y, window []float64, base, lo, hi int) {
				SSSRows(s, &s.Lower.Val, x, y, window, base, lo, hi)
			},
			"sss-f32": func(y, window []float64, base, lo, hi int) {
				SSSRows(s, &v32, x, y, window, base, lo, hi)
			},
		}
		for kern, f := range run {
			for tid, r := range parts {
				base := win[tid].Lo
				y := make([]float64, s.N)
				window := make([]float64, s.N)
				for c := range y {
					if c < r.Lo || c >= r.Hi {
						y[c] = sssPoison
					}
				}
				for c := win[tid].Rows(); c < len(window); c++ {
					window[c] = sssPoison
				}
				f(y, window, base, r.Lo, r.Hi)
				for c := range y {
					if (c < r.Lo || c >= r.Hi) && y[c] != sssPoison {
						t.Fatalf("%s/%s slot %d: y cell %d written outside rows [%d,%d)",
							name, kern, tid, c, r.Lo, r.Hi)
					}
				}
				for c := win[tid].Rows(); c < len(window); c++ {
					if window[c] != sssPoison {
						t.Fatalf("%s/%s slot %d: window cell %d written past lo-base=%d",
							name, kern, tid, c, win[tid].Rows())
					}
				}
			}
		}
	}
}
