package kernels

import (
	"math"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// The float32 instances of the range kernels are checked against
// sequential f64 references run on float64(float32(v)) values (the
// values a float32 instance multiplies by): the parallel range
// decomposition must be a pure refactoring of the reference walk,
// exact to reordering noise.

// precKernelTol allows only summation-reorder noise between a range
// kernel and its sequential reference on identical reduced values.
const precKernelTol = 1e-12

func checkPrecRanges(t *testing.T, name string, n int, ref, ranged func(x, y []float64)) {
	t.Helper()
	x := vec(n, 1)
	want := make([]float64, n)
	ref(x, want)
	got := make([]float64, n)
	ranged(x, got)
	for i := range want {
		if math.Abs(want[i]-got[i]) > precKernelTol*(1+math.Abs(want[i])) {
			t.Fatalf("%s: y[%d] = %g, want %g", name, i, got[i], want[i])
		}
	}
}

// roundedF32 returns a copy of m whose values are their float32 images
// widened back.
func roundedF32(m *matrix.CSR) *matrix.CSR {
	r := m.Clone()
	for j, v := range r.Val {
		r.Val[j] = float64(float32(v))
	}
	return r
}

// thirds returns uneven range bounds over [0, n) that exercise the
// range edges.
func thirds(n int) []int {
	return []int{0, n / 3, 2*n/3 + 1, n}
}

func TestPrecCSRRangesMatchReference(t *testing.T) {
	for mname, m := range testMatrices() {
		if m.NRows != m.NCols {
			continue // square inputs keep the shared x/y helper simple
		}
		val := formats.NarrowF32(m.Val)
		kernels := map[string]func(m *matrix.CSR, val *[]float32, x, y []float64, lo, hi int){
			"prec-csr":      CSRRows[float32],
			"prec-csr-vec8": CSRVector8Rows[float32],
		}
		for kname, k := range kernels {
			checkPrecRanges(t, mname+"/"+kname, m.NRows, roundedF32(m).MulVec, func(x, y []float64) {
				b := thirds(m.NRows)
				for i := 0; i+1 < len(b); i++ {
					k(m, &val, x, y, b[i], b[i+1])
				}
			})
		}
	}
}

func TestPrecSellCSRangeMatchesReference(t *testing.T) {
	for mname, m := range testMatrices() {
		if m.NRows != m.NCols {
			continue
		}
		s := formats.ConvertSellCSAuto(m)
		vals := formats.NarrowF32(s.Vals)
		ref := formats.ConvertSellCSAuto(roundedF32(m))
		checkPrecRanges(t, mname+"/prec-sellcs", m.NRows, ref.MulVec, func(x, y []float64) {
			b := thirds(s.NChunks())
			for i := 0; i+1 < len(b); i++ {
				formats.SellCSChunks(s, &vals, x, y, b[i], b[i+1])
			}
		})
	}
}

func TestPrecSSSRangeMatchesReference(t *testing.T) {
	m := symTestMatrix(400, 5)
	s := formats.ConvertSSS(m)
	val := formats.NarrowF32(s.Lower.Val)
	// The float32 instance keeps the diagonal in f64 and narrows only
	// the lower triangle.
	ref := *s
	ref.Lower = roundedF32(s.Lower)
	checkPrecRanges(t, "prec-sss", s.N, ref.MulVec, func(x, y []float64) {
		b := thirds(s.N)
		var parts []sched.Range
		for i := 0; i+1 < len(b); i++ {
			parts = append(parts, sched.Range{Lo: b[i], Hi: b[i+1]})
		}
		win := formats.SymWindows(s.Lower, parts)
		windows := make([][]float64, len(parts))
		for i, r := range parts {
			windows[i] = make([]float64, win[i].Rows())
			SSSRows(s, &val, x, y, windows[i], win[i].Lo, r.Lo, r.Hi)
		}
		for i, w := range win {
			for c, v := range windows[i] {
				y[w.Lo+c] += v
			}
		}
	})
}
