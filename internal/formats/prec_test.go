package formats

// Differential and property tests for the f32 value storage. The
// contract under test is the per-entry error bound: for every generator
// family, a product over narrowed values must stay within
// F32EntryBound of the f64 CSR reference — measured componentwise
// against the row's magnitude scale Σ_j |a_ij·x_j|, the right
// yardstick when cancellation shrinks |y_i| — and FitsF32 must refuse
// every finite value float32 would silently turn into ±Inf or 0. The
// SELL-C-σ bodies live here, so their float32 instance is also held
// bit-identical to the float64 instance on rounded values; the CSR and
// SSS instances are held to the same oracle in internal/native.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// precTol is the result tolerance: the storage bound plus a few f64
// ulps per unit of row scale for the reordering noise between the
// reduced walk and the reference.
const precTol = F32EntryBound + 32*0x1p-52

// precRef returns the f64 reference product of m and x and each row's
// magnitude scale Σ_j |a_ij·x_j|.
func precRef(m *matrix.CSR, x []float64) (ref, scale []float64) {
	ref = make([]float64, m.NRows)
	scale = make([]float64, m.NRows)
	for i := 0; i < m.NRows; i++ {
		var sum, sc float64
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			p := m.Val[j] * x[m.ColInd[j]]
			sum += p
			sc += math.Abs(p)
		}
		ref[i], scale[i] = sum, sc
	}
	return ref, scale
}

// precDiff multiplies through the reduced form and checks every finite
// row against the f64 CSR reference within precTol (componentwise,
// scale-relative).
func precDiff(t *testing.T, label string, m *matrix.CSR, mul func(x, y []float64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref, scale := precRef(m, x)
	got := make([]float64, m.NRows)
	for i := range got {
		got[i] = math.NaN() // every row must be written
	}
	mul(x, got)
	for i := range ref {
		if math.IsNaN(ref[i]) || math.IsInf(ref[i], 0) {
			continue // non-finite reference rows are checked by the dedicated tests
		}
		if math.IsNaN(got[i]) && m.RowPtr[i] < m.RowPtr[i+1] {
			t.Fatalf("%s: y[%d] is NaN for finite reference %g", label, i, ref[i])
		}
		if math.Abs(got[i]-ref[i]) > precTol*scale[i] {
			t.Fatalf("%s: y[%d] = %.17g, want %.17g within %g*%g",
				label, i, got[i], ref[i], precTol, scale[i])
		}
	}
}

// widened returns the float64 image of narrowed values: what the
// float64 oracle of a float32 instance runs on.
func widened(v32 []float32) []float64 {
	out := make([]float64, len(v32))
	for i, v := range v32 {
		out[i] = float64(v)
	}
	return out
}

// sellF32 returns the MulVec of s's float32 instance, after checking
// it bit for bit against the float64 instance on rounded values (NaN
// matching NaN).
func sellF32(t *testing.T, s *SellCS) func(x, y []float64) {
	t.Helper()
	v32 := NarrowF32(s.Vals)
	v64 := widened(v32)
	return func(x, y []float64) {
		SellCSChunks(s, &v32, x, y, 0, s.NChunks())
		want := make([]float64, len(y))
		SellCSChunks(s, &v64, x, want, 0, s.NChunks())
		sameBits(t, "f32 sellcs", y, want)
	}
}

// sameBits fails unless got equals the float64 instance's want bit for
// bit, NaN matching NaN.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: y[%d] = %g, float64 instance on rounded values %g", label, i, got[i], want[i])
		}
	}
}

// TestPrecDifferential sweeps every generator family: the f64 CSR
// product on rounded values (the oracle of the CSR float32 instance)
// and the SELL float32 instances must track the f64 reference within
// F32EntryBound.
func TestPrecDifferential(t *testing.T) {
	for _, fam := range families() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3, 4, 5} {
				n := 40 + int(seed*37)%300
				m := fam.build(n, seed)
				if !FitsF32(m.Val) {
					t.Fatalf("seed %d: generated values must fit float32", seed)
				}
				r := m.Clone()
				r.Val = widened(NarrowF32(m.Val))
				precDiff(t, "f32-csr", m, r.MulVec)
				for _, s := range []*SellCS{ConvertSellCSAuto(m), ConvertSellCS(m, 3, 7)} {
					precDiff(t, "f32-sellcs", m, sellF32(t, s))
				}
			}
		})
	}
}

// TestPrecDifferentialSSS sweeps the symmetric families: symmetric
// storage with a narrowed lower triangle and the f64 diagonal — the
// values its float32 instance runs on — must track the mirrored f64
// reference.
func TestPrecDifferentialSSS(t *testing.T) {
	for _, fam := range symFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3} {
				n := 40 + int(seed*37)%300
				m := fam.build(n, seed)
				s := ConvertSSS(m)
				s.Lower.Val = widened(NarrowF32(s.Lower.Val))
				precDiff(t, "f32-sss", m, s.MulVec)
			}
		})
	}
}

// TestPrecNoSilentOverflow pins the fit contract: a finite f64 beyond
// float32 range, or one float32 flushes to zero or to a coarse
// subnormal, does not fit, so no caller reduces it to a silent ±Inf or
// 0; values float32 holds to within the bound do.
func TestPrecNoSilentOverflow(t *testing.T) {
	for _, v := range []float64{
		1e300,                       // overflows float32 to +Inf
		-4e38,                       // overflows float32 to -Inf
		1e-300,                      // flushes to 0 in float32
		math.SmallestNonzeroFloat64, // f64 subnormal
		1e-40,                       // float32 subnormal: ~1e-5 relative rounding
	} {
		if FitsF32([]float64{1.5, v}) {
			t.Errorf("FitsF32 accepted %g", v)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1.5, 1 + 1e-9, math.MaxFloat32, -1e-37} {
		if !FitsF32([]float64{v}) {
			t.Errorf("FitsF32 refused %g", v)
		}
	}
}

// TestPrecNonFinitePropagation: NaN and true ±Inf inputs fit (float32
// has the same specials), are stored faithfully, and propagate to the
// result exactly as the f64 reference does.
func TestPrecNonFinitePropagation(t *testing.T) {
	coo := matrix.NewCOO(3, 3)
	coo.Add(0, 0, math.NaN())
	coo.Add(1, 1, math.Inf(1))
	coo.Add(2, 2, math.Inf(-1))
	m := coo.ToCSR()
	if !FitsF32(m.Val) {
		t.Fatal("non-finite values must fit: float32 stores them faithfully")
	}
	y := make([]float64, 3)
	sellF32(t, ConvertSellCSAuto(m))([]float64{1, 1, 1}, y)
	if !math.IsNaN(y[0]) || !math.IsInf(y[1], 1) || !math.IsInf(y[2], -1) {
		t.Fatalf("specials did not propagate: y = %v", y)
	}
}

// TestPrecF32FullMantissas: random full-mantissa values lose their low
// bits in float32 but stay well within the bound.
func TestPrecF32FullMantissas(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 64
	coo := matrix.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 4; k++ {
			coo.Add(i, rng.Intn(n), 1+rng.Float64()) // full random mantissas
		}
	}
	m := coo.ToCSR()
	if !FitsF32(m.Val) {
		t.Fatal("normal-range values must fit float32")
	}
	lost := 0
	for j, v := range NarrowF32(m.Val) {
		if float64(v) != m.Val[j] {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("narrowing kept every full mantissa: nothing was rounded")
	}
	precDiff(t, "f32-full-mantissas", m, sellF32(t, ConvertSellCSAuto(m)))
}

// FuzzNarrowF32 feeds raw float64 bit patterns — subnormals, values
// beyond MaxFloat32, NaN and ±Inf included — through NarrowF32. Either
// FitsF32 refuses the values, or every narrowed value is within
// F32EntryBound of its source with specials kept exactly, the SELL
// float32 instance equals the float64 instance on rounded values bit
// for bit (NaN matching NaN), and its
// product agrees with the f64 reference within the bound (non-finite
// rows in kind: the same NaN or the same signed Inf).
func FuzzNarrowF32(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 2.5, -3))
	f.Add(seed(1e300, 1))
	f.Add(seed(math.MaxFloat32, -math.MaxFloat32, 3.4028235677973366e38))
	f.Add(seed(math.SmallestNonzeroFloat64, 1e-40, 1e-38, math.SmallestNonzeroFloat32))
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)))
	f.Add(seed(math.Inf(1), math.Inf(-1), 7))
	f.Fuzz(func(t *testing.T, data []byte) {
		nv := len(data) / 8
		if nv == 0 || nv > 256 {
			return
		}
		// Three entries per row at scattered columns of a square matrix.
		n := (nv + 2) / 3
		coo := matrix.NewCOO(n, n)
		for k := 0; k < nv; k++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*k:]))
			coo.Add(k/3, (k*5+k/3)%n, v)
		}
		m := coo.ToCSR()
		// Duplicate coordinates are summed by ToCSR, so the check runs
		// on m.Val rather than the raw inputs.
		if !FitsF32(m.Val) {
			return
		}
		for j, w32 := range NarrowF32(m.Val) {
			v, w := m.Val[j], float64(w32)
			switch {
			case math.IsNaN(v):
				if !math.IsNaN(w) {
					t.Fatalf("entry %d: NaN stored as %g", j, w)
				}
			case math.IsInf(v, 0):
				if w != v {
					t.Fatalf("entry %d: %g stored as %g", j, v, w)
				}
			case math.IsInf(w, 0) || math.Abs(w-v) > F32EntryBound*math.Abs(v):
				t.Fatalf("entry %d: %g stored as %g, beyond the bound", j, v, w)
			}
		}
		// Full-mantissa x, so a reordered sum would change bits.
		x := make([]float64, n)
		for i := range x {
			x[i] = 1 + 1/float64(i+3)
		}
		s := ConvertSellCSAuto(m)
		ref, scale := precRef(m, x)
		got := make([]float64, n)
		sellF32(t, s)(x, got)
		for i := range ref {
			switch {
			case math.IsNaN(ref[i]):
				if !math.IsNaN(got[i]) {
					t.Fatalf("y[%d] = %g, want NaN", i, got[i])
				}
			case math.IsInf(ref[i], 0):
				if got[i] != ref[i] {
					t.Fatalf("y[%d] = %g, want %g", i, got[i], ref[i])
				}
			case math.Abs(got[i]-ref[i]) > precTol*scale[i]:
				t.Fatalf("y[%d] = %.17g, want %.17g within %g*%g", i, got[i], ref[i], precTol, scale[i])
			}
		}
	})
}
