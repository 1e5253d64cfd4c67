package kernels

import (
	"math"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// The precision kernels are checked against the sequential references
// in internal/formats (which the differential harness there ties to
// the f64 CSR oracle): the parallel range decomposition must be a pure
// refactoring of the reference walk, exact to reordering noise.

// precKernelTol allows only summation-reorder noise between a range
// kernel and its sequential reference on identical reduced storage.
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

func TestPrecCSRRangesMatchReference(t *testing.T) {
	for mname, m := range testMatrices() {
		if m.NRows != m.NCols {
			continue // square inputs keep the shared x/y helper simple
		}
		p := formats.ConvertPrecCSR(m)
		kernels := map[string]func(p *formats.PrecCSR, x, y []float64, lo, hi int){
			"prec-csr":      PrecCSRRange,
			"prec-csr-vec8": PrecCSRVector8Range,
		}
		for kname, k := range kernels {
			checkPrecRanges(t, mname+"/"+kname, m.NRows, p.MulVec, func(x, y []float64) {
				// Uneven chunks exercise the range edges.
				bounds := []int{0, m.NRows / 3, 2*m.NRows/3 + 1, m.NRows}
				for b := 0; b+1 < len(bounds); b++ {
					k(p, x, y, bounds[b], bounds[b+1])
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
		p := formats.ConvertPrecSellCS(formats.ConvertSellCSAuto(m))
		checkPrecRanges(t, mname+"/prec-sellcs", m.NRows, p.MulVec, func(x, y []float64) {
			nc := p.NChunks()
			bounds := []int{0, nc / 3, 2*nc/3 + 1, nc}
			for b := 0; b+1 < len(bounds); b++ {
				PrecSellCSRange(p, x, y, bounds[b], bounds[b+1])
			}
		})
	}
}

func TestPrecSSSRangeMatchesReference(t *testing.T) {
	m := symTestMatrix(400, 5)
	s := formats.ConvertSSS(m)
	p := formats.ConvertPrecSSS(s)
	checkPrecRanges(t, "prec-sss", p.N, p.MulVec, func(x, y []float64) {
		bounds := []int{0, p.N / 3, 2*p.N/3 + 1, p.N}
		var parts []sched.Range
		for b := 0; b+1 < len(bounds); b++ {
			parts = append(parts, sched.Range{Lo: bounds[b], Hi: bounds[b+1]})
		}
		win := formats.SymWindows(s.Lower, parts)
		windows := make([][]float64, len(parts))
		for b, r := range parts {
			windows[b] = make([]float64, win[b].Rows())
			PrecSSSRange(p, x, y, windows[b], win[b].Lo, r.Lo, r.Hi)
		}
		for b, w := range win {
			for c, v := range windows[b] {
				y[w.Lo+c] += v
			}
		}
	})
}

// TestPrecBlockRangesMatchPerVector: the blocked multi-RHS precision
// kernels must equal k independent single-vector multiplies of the
// same reduced storage.
func TestPrecBlockRangesMatchPerVector(t *testing.T) {
	m := testMatrices()["powerlaw"]
	p := formats.ConvertPrecCSR(m)
	for _, k := range []int{1, 2, 3, 8} {
		xs := make([][]float64, k)
		want := make([][]float64, k)
		for l := 0; l < k; l++ {
			xs[l] = vec(m.NCols, int64(10+l))
			want[l] = make([]float64, m.NRows)
			p.MulVec(xs[l], want[l])
		}
		xb := matrix.PackBlock(nil, xs)
		yb := make([]float64, m.NRows*k)
		PrecCSRBlockRange(p, xb, yb, k, 0, m.NRows)
		for l := 0; l < k; l++ {
			for i := 0; i < m.NRows; i++ {
				if math.Abs(want[l][i]-yb[i*k+l]) > precKernelTol*(1+math.Abs(want[l][i])) {
					t.Fatalf("prec-csr-block k=%d: y[%d][%d] = %g, want %g",
						k, l, i, yb[i*k+l], want[l][i])
				}
			}
		}
	}
}
