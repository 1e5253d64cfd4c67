package formats

// Cross-format differential harness: every derived storage format —
// DeltaCSR, SELL-C-σ — must compute the same SpMV as the
// reference CSR kernel and reconstruct the original matrix exactly,
// across every structural family the generators produce, including the
// degenerate shapes (empty rows, one dominating dense row) that
// historically break format conversions.

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// diffRelTol is the differential harness' relative tolerance. The
// formats reorder additions (SELL permutes rows but keeps in-row
// order; SSS mirrors), so results can differ by a few ulps — 1e-12 is
// ~4 decimal orders looser than the float64 epsilon and far tighter
// than any structural bug.
const diffRelTol = 1e-12

// family is one generator regime of the differential sweep.
type family struct {
	name  string
	build func(n int, seed int64) *matrix.CSR
}

func families() []family {
	return []family{
		{"uniform", func(n int, seed int64) *matrix.CSR {
			return gen.UniformRandom(n, 2+int(seed%9), seed)
		}},
		{"powerlaw", func(n int, seed int64) *matrix.CSR {
			return gen.PowerLaw(n, 4+float64(seed%5), 1.7+0.1*float64(seed%5), n/2, seed)
		}},
		{"banded", func(n int, seed int64) *matrix.CSR {
			return gen.Banded(n, 1+int(seed%12), 0.4+0.1*float64(seed%6), seed)
		}},
		{"empty-rows", emptyRowFamily},
		{"single-dense-row", func(n int, seed int64) *matrix.CSR {
			return gen.FewDenseRows(n, 3, 1, n, seed)
		}},
		{"short-rows", func(n int, seed int64) *matrix.CSR {
			return gen.ShortRows(n, 1+int(seed%4), seed)
		}},
	}
}

// emptyRowFamily generates a matrix where a random subset of rows is
// empty (every format must preserve the rows and zero their outputs).
func emptyRowFamily(n int, seed int64) *matrix.CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := matrix.NewCOO(n, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.4 {
			continue // empty row
		}
		deg := 1 + rng.Intn(5)
		for k := 0; k < deg; k++ {
			coo.Add(i, rng.Intn(n), 0.1+rng.Float64())
		}
	}
	m := coo.ToCSR()
	m.Name = "empty-rows"
	return m
}

// mulDiff runs mul into a poisoned output vector and compares against
// the CSR reference within diffRelTol.
func mulDiff(t *testing.T, label string, m *matrix.CSR, mul func(x, y []float64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, m.NRows)
	m.MulVec(x, want)
	got := make([]float64, m.NRows)
	for i := range got {
		got[i] = math.NaN() // every row must be written, empty ones with 0
	}
	mul(x, got)
	for i := range want {
		if math.IsNaN(got[i]) {
			t.Fatalf("%s: y[%d] never written", label, i)
		}
		if math.Abs(want[i]-got[i]) > diffRelTol*(1+math.Abs(want[i])) {
			t.Fatalf("%s: y[%d] = %.17g, want %.17g", label, i, got[i], want[i])
		}
	}
}

// TestDifferentialAllFormats is the cross-format property sweep: for
// every family and several seeds/sizes, all three derived formats must
// agree with reference CSR and round-trip exactly.
func TestDifferentialAllFormats(t *testing.T) {
	for _, fam := range families() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
				n := 40 + int(seed*37)%300
				m := fam.build(n, seed)
				if err := m.Validate(); err != nil {
					t.Fatalf("seed %d: generator emitted invalid CSR: %v", seed, err)
				}

				d := Compress(m)
				mulDiff(t, "delta", m, d.MulVec)
				if !d.Decompress().Equal(m) {
					t.Fatalf("seed %d: DeltaCSR round trip changed the matrix", seed)
				}

				// SELL across chunk-height/window corners: the auto
				// defaults plus a deliberately awkward (C, σ) pair.
				for _, sc := range []*SellCS{
					ConvertSellCSAuto(m),
					ConvertSellCS(m, 3, 7),
				} {
					mulDiff(t, "sellcs", m, sc.MulVec)
					if !sc.Reassemble().Equal(m) {
						t.Fatalf("seed %d: SELL-C-σ (C=%d,σ=%d) round trip changed the matrix",
							seed, sc.C, sc.Sigma)
					}
				}
			}
		})
	}
}

// mulMatDiff runs a blocked multi-RHS multiply into a poisoned output
// block and compares every right-hand side against the per-vector CSR
// reference within diffRelTol.
func mulMatDiff(t *testing.T, label string, m *matrix.CSR, k int, mul func(x, y []float64, k int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(100 + k)))
	xs := make([][]float64, k)
	want := make([][]float64, k)
	for l := 0; l < k; l++ {
		xs[l] = make([]float64, m.NCols)
		for j := range xs[l] {
			xs[l][j] = rng.NormFloat64()
		}
		want[l] = make([]float64, m.NRows)
		m.MulVec(xs[l], want[l])
	}
	xb := matrix.PackBlock(nil, xs)
	yb := make([]float64, m.NRows*k)
	for i := range yb {
		yb[i] = math.NaN() // every cell must be written, empty rows with 0
	}
	mul(xb, yb, k)
	for l := 0; l < k; l++ {
		for i := 0; i < m.NRows; i++ {
			got := yb[i*k+l]
			if math.IsNaN(got) {
				t.Fatalf("%s k=%d: y[%d][%d] never written", label, k, l, i)
			}
			if math.Abs(want[l][i]-got) > diffRelTol*(1+math.Abs(want[l][i])) {
				t.Fatalf("%s k=%d: y[%d][%d] = %.17g, want %.17g", label, k, l, i, got, want[l][i])
			}
		}
	}
}

// TestDifferentialSpMM is the blocked multi-RHS sweep: for every
// family, the reference CSR MulMat every prepared batch path is
// checked against must match the per-vector CSR reference within
// diffRelTol at each block width, register-blocked or not.
func TestDifferentialSpMM(t *testing.T) {
	widths := []int{1, 2, 3, 4, 5, 8}
	for _, fam := range families() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3, 4} {
				n := 40 + int(seed*41)%250
				m := fam.build(n, seed)
				for _, k := range widths {
					mulMatDiff(t, "csr", m, k, m.MulMat)
				}
			}
		})
	}
}

// symFamilies are the symmetric regimes of the differential sweep:
// the SPD Laplacians the iterative solvers run on, plus symmetrized
// (A + Aᵀ) versions of the structural families above. Every SSS
// conversion must agree with the mirrored-CSR reference and
// round-trip exactly.
func symFamilies() []family {
	base := families()
	out := []family{
		{"lap2d", func(n int, seed int64) *matrix.CSR {
			side := 2
			for side*side < n {
				side++
			}
			return gen.Poisson2D(side, side)
		}},
		{"lap3d", func(n int, seed int64) *matrix.CSR {
			side := 2
			for side*side*side < n {
				side++
			}
			return gen.Poisson3D(side, side, side)
		}},
	}
	for _, f := range base {
		f := f
		out = append(out, family{"sym-" + f.name, func(n int, seed int64) *matrix.CSR {
			return symmetrize(f.build(n, seed))
		}})
	}
	return out
}

// TestDifferentialSSS is the symmetric-format sweep: for every
// symmetric family and several seeds, the SSS kernel must agree with
// the mirrored-CSR reference within diffRelTol and reconstruct the
// mirrored matrix exactly.
func TestDifferentialSSS(t *testing.T) {
	for _, fam := range symFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3, 4, 5} {
				n := 40 + int(seed*37)%300
				m := fam.build(n, seed)
				if err := m.Validate(); err != nil {
					t.Fatalf("seed %d: generator emitted invalid CSR: %v", seed, err)
				}
				if matrix.DetectSymmetry(m) != matrix.SymSymmetric {
					t.Fatalf("seed %d: family %s is not symmetric", seed, fam.name)
				}
				s := ConvertSSS(m)
				mulDiff(t, "sss", m, s.MulVec)
				if !s.Reassemble().Equal(m) {
					t.Fatalf("seed %d: SSS round trip changed the matrix", seed)
				}
			}
		})
	}
}

// TestDifferentialFormatsPreserveNNZ: no conversion may create or drop
// stored elements (padding is storage, not elements).
func TestDifferentialFormatsPreserveNNZ(t *testing.T) {
	for _, fam := range families() {
		m := fam.build(200, 9)
		if got := Compress(m).NNZ(); got != m.NNZ() {
			t.Errorf("%s: delta nnz %d != %d", fam.name, got, m.NNZ())
		}
		if got := ConvertSellCSAuto(m).NNZ(); got != m.NNZ() {
			t.Errorf("%s: sell nnz %d != %d", fam.name, got, m.NNZ())
		}
	}
}

// TestDifferentialAgainstDense cross-checks the CSR reference itself
// against a dense mat-vec on small inputs, anchoring the whole harness.
func TestDifferentialAgainstDense(t *testing.T) {
	for _, fam := range families() {
		m := fam.build(48, 11)
		mulDiff(t, fam.name+"/dense-anchor", m, func(x, y []float64) {
			m.ToDense().MulVec(x, y)
		})
	}
}
