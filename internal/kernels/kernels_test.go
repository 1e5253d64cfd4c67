package kernels

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
)

func vec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func checkAgainstReference(t *testing.T, name string, m *matrix.CSR, k RangeKernel) {
	t.Helper()
	x := vec(m.NCols, 1)
	want := make([]float64, m.NRows)
	m.MulVec(x, want)
	got := make([]float64, m.NRows)
	// Run the kernel in three uneven chunks to exercise range edges.
	bounds := []int{0, m.NRows / 3, 2*m.NRows/3 + 1, m.NRows}
	for b := 0; b+1 < len(bounds); b++ {
		k(m, x, got, bounds[b], bounds[b+1])
	}
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("%s: y[%d] = %g, want %g", name, i, got[i], want[i])
		}
	}
}

func testMatrices() map[string]*matrix.CSR {
	return map[string]*matrix.CSR{
		"uniform":   gen.UniformRandom(500, 7, 1),
		"banded":    gen.Banded(500, 6, 0.7, 2),
		"powerlaw":  gen.PowerLaw(500, 6, 2.0, 200, 3),
		"short":     gen.ShortRows(500, 3, 4),
		"dense":     gen.Dense(64, 5),
		"diag":      gen.Diagonal(300, 6),
		"empty-row": emptyRowMatrix(),
	}
}

func emptyRowMatrix() *matrix.CSR {
	coo := matrix.NewCOO(10, 10)
	coo.Add(0, 3, 1.5)
	coo.Add(9, 0, -2)
	m := coo.ToCSR()
	m.Name = "empty-rows"
	return m
}

func TestComputeKernelsMatchReference(t *testing.T) {
	// The prefetch, unrolled4 and vec8prefetch rows are the row kernel
	// each such plan runs on the host: Canonical folds both knobs into
	// Vectorize, so all three bind the dispatched gather body.
	host := machine.Host()
	planKernel := func(o exec.Optim) RangeKernel { return Variant(o.Canonical(host).Vectorize) }
	kernelsUnderTest := map[string]RangeKernel{
		"csr":          CSRRange,
		"vector8":      CSRVector8Range,
		"prefetch":     planKernel(exec.Optim{Prefetch: true}),
		"unrolled4":    planKernel(exec.Optim{Unroll: true}),
		"vec8prefetch": planKernel(exec.Optim{Vectorize: true, Prefetch: true}),
	}
	for mname, m := range testMatrices() {
		for kname, k := range kernelsUnderTest {
			t.Run(mname+"/"+kname, func(t *testing.T) {
				checkAgainstReference(t, kname, m, k)
			})
		}
	}
}

func TestDeltaRangeMatchesReference(t *testing.T) {
	for mname, m := range testMatrices() {
		t.Run(mname, func(t *testing.T) {
			d := formats.Compress(m)
			offs := d.OverflowOffsets()
			x := vec(m.NCols, 2)
			want := make([]float64, m.NRows)
			m.MulVec(x, want)
			got := make([]float64, m.NRows)
			bounds := []int{0, m.NRows / 2, m.NRows}
			for b := 0; b+1 < len(bounds); b++ {
				DeltaRange(d, x, got, bounds[b], bounds[b+1], offs[bounds[b]])
			}
			for i := range want {
				if math.Abs(want[i]-got[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("delta: y[%d] = %g, want %g", i, got[i], want[i])
				}
			}
		})
	}
}

func TestSellCSKernelsMatchReference(t *testing.T) {
	for mname, m := range testMatrices() {
		t.Run(mname, func(t *testing.T) {
			s := formats.ConvertSellCSAuto(m)
			x := vec(m.NCols, 5)
			want := make([]float64, m.NRows)
			m.MulVec(x, want)
			for _, v := range []struct {
				name string
				k    func(s *formats.SellCS, x, y []float64, lo, hi int)
			}{{"plain", SellCSRange}, {"c8", SellCS8Range}} {
				got := make([]float64, m.NRows)
				// Uneven chunk ranges exercise partition edges.
				nc := s.NChunks()
				bounds := []int{0, nc / 3, 2*nc/3 + 1, nc}
				if bounds[2] > nc {
					bounds[2] = nc
				}
				for b := 0; b+1 < len(bounds); b++ {
					if bounds[b] < bounds[b+1] {
						v.k(s, x, got, bounds[b], bounds[b+1])
					}
				}
				for i := range want {
					if math.Abs(want[i]-got[i]) > 1e-9*(1+math.Abs(want[i])) {
						t.Fatalf("sellcs-%s: y[%d] = %g, want %g", v.name, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestSellCS8EmptyRowsExactZeroUnderNonFiniteX(t *testing.T) {
	// Empty-row lanes are pure padding against column 0; even when
	// x[0] is non-finite the kernel must scatter the exact zero the
	// reference produces.
	m := emptyRowMatrix() // rows 1..8 empty, entries at (0,3) and (9,0)
	s := formats.ConvertSellCS(m, 8, 8)
	x := make([]float64, m.NCols)
	x[0] = math.Inf(1)
	x[3] = 2
	y := make([]float64, m.NRows)
	SellCS8Range(s, x, y, 0, s.NChunks())
	want := make([]float64, m.NRows)
	m.MulVec(x, want)
	for i := range want {
		if y[i] != want[i] && !(math.IsNaN(y[i]) && math.IsNaN(want[i])) {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestSellCS8RangeFallsBackForOtherC(t *testing.T) {
	m := gen.UniformRandom(300, 5, 8)
	s := formats.ConvertSellCS(m, 4, 64) // C != 8
	x := vec(m.NCols, 6)
	want := make([]float64, m.NRows)
	m.MulVec(x, want)
	got := make([]float64, m.NRows)
	SellCS8Range(s, x, got, 0, s.NChunks())
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("fallback: y[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSellCSVariantSelection(t *testing.T) {
	m := gen.UniformRandom(200, 5, 10)
	s8 := formats.ConvertSellCS(m, 8, 64)
	// The C=8 variant carries the dispatched ISA as a suffix
	// ("sellcs-c8-avx512" etc.); "sellcs-c8" for the pure-Go body.
	if _, name := SellCSVariant(s8); !strings.HasPrefix(name, "sellcs-c8") {
		t.Fatalf("C=8 variant = %q, want sellcs-c8[-isa]", name)
	}
	s4 := formats.ConvertSellCS(m, 4, 64)
	if _, name := SellCSVariant(s4); name != "sellcs" {
		t.Fatalf("C=4 variant = %q, want sellcs", name)
	}
}

func TestBoundKernelsRun(t *testing.T) {
	// The bound kernels are probes, not SpMV: they must run without
	// touching colind-indexed x (RegularizedRange) and produce the
	// value-sum shape.
	m := gen.UniformRandom(200, 5, 9)
	x := vec(m.NCols, 4)
	y := make([]float64, m.NRows)
	RegularizedRange(m, x, y, 0, m.NRows)
	for i := 0; i < m.NRows; i++ {
		var sum float64
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			sum += m.Val[j]
		}
		want := sum * x[i%len(x)]
		if math.Abs(y[i]-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("regularized y[%d] = %g, want %g", i, y[i], want)
		}
	}
	y2 := make([]float64, m.NRows)
	UnitStrideRange(m, x, y2, 0, m.NRows)
	for i := range y {
		if y[i] != y2[i] {
			t.Fatal("bound kernels should agree on this input")
		}
	}
}

func TestVariantSelection(t *testing.T) {
	m := gen.Banded(100, 3, 1, 1)
	for _, vec := range []bool{false, true} {
		k := Variant(vec)
		if k == nil {
			t.Fatalf("nil kernel for vectorize=%v", vec)
		}
		checkAgainstReference(t, "variant", m, k)
	}
}

// Property: all compute kernels agree with the reference on arbitrary
// generated matrices.
func TestKernelsAgreeQuick(t *testing.T) {
	f := func(seed int64, sel uint8) bool {
		n := 50 + int(uint64(seed)%150)
		var m *matrix.CSR
		switch sel % 4 {
		case 0:
			m = gen.UniformRandom(n, 6, seed)
		case 1:
			m = gen.PowerLaw(n, 5, 2.0, n, seed)
		case 2:
			m = gen.ShortRows(n, 4, seed)
		case 3:
			m = gen.ClusteredFEM(n, 16, 10, seed)
		}
		x := vec(m.NCols, seed)
		want := make([]float64, m.NRows)
		m.MulVec(x, want)
		for _, k := range []RangeKernel{CSRVector8Range, Variant(true)} {
			got := make([]float64, m.NRows)
			k(m, x, got, 0, m.NRows)
			for i := range want {
				if math.Abs(want[i]-got[i]) > 1e-9*(1+math.Abs(want[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestVariantNameMatchesVariant(t *testing.T) {
	if got := VariantName(false); got != "csr" {
		t.Fatalf("VariantName(false) = %q, want csr", got)
	}
	// The vector name carries the dispatched ISA suffix, if any.
	if got := VariantName(true); !strings.HasPrefix(got, "csr-vec8") {
		t.Fatalf("VariantName(true) = %q, want csr-vec8*", got)
	}
}
