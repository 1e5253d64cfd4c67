package native

// Engine tests for the precision-reduced prepared paths: every
// schedule/format combination that honors f32 must track the f64 CSR
// reference within the documented bound on values that fit float32,
// run its f64 binding on values that do not, report the smaller
// storage footprint, and stay allocation-free in steady state (the CI
// alloc job picks up TestAllocFreePrec via -run TestAlloc).

import (
	"math"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// precCheck compares a prepared reduced-precision multiply against the
// f64 reference, componentwise against the row magnitude scale (the
// parallel reduction reorders sums, so the slack term absorbs a few
// ulps beyond the storage bound).
func precCheck(t *testing.T, label string, m *matrix.CSR, bound float64, mul func(x, y []float64)) {
	t.Helper()
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + 0.25*float64(i%7)
	}
	ref := make([]float64, m.NRows)
	scale := make([]float64, m.NRows)
	for i := 0; i < m.NRows; i++ {
		var sum, sc float64
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			p := m.Val[j] * x[m.ColInd[j]]
			sum += p
			sc += math.Abs(p)
		}
		ref[i], scale[i] = sum, sc
	}
	got := make([]float64, m.NRows)
	mul(x, got)
	tol := bound + 64*0x1p-52
	for i := range ref {
		if math.Abs(got[i]-ref[i]) > tol*scale[i] {
			t.Fatalf("%s: y[%d] = %.17g, want %.17g within %g*%g",
				label, i, got[i], ref[i], tol, scale[i])
		}
	}
}

// precOptims enumerates the prepared paths that honor reduced
// precision on an asymmetric matrix.
func precOptims() map[string]ex.Optim {
	return map[string]ex.Optim{
		"csr":          {},
		"csr-vec8":     {Vectorize: true},
		"csr-dynamic":  {Schedule: sched.Dynamic},
		"csr-guided":   {Schedule: sched.Guided},
		"sellcs":       {SellCS: true, Vectorize: true},
		"sellcs-dyn":   {SellCS: true, Vectorize: true, Schedule: sched.Dynamic},
		"sellcs-plain": {SellCS: true},
	}
}

// precVariants names the two inputs every reduced-precision path is
// checked on: "f32" a matrix whose values fit float32, and
// "unfit" the same matrix scaled past float32's range (1e300)
// or into f64 subnormals (1e-310), which the f32 configuration must
// run through its f64 binding.
func precVariants() map[string][]float64 {
	return map[string][]float64{
		"f32":   {1},
		"unfit": {1e300, 1e-310},
	}
}

// scaled returns a copy of m with every value multiplied by s.
func scaled(m *matrix.CSR, s float64) *matrix.CSR {
	c := m.Clone()
	for j := range c.Val {
		c.Val[j] *= s
	}
	return c
}

// checkPrecVariant prepares o at f32 on m scaled by s. Values that fit
// float32 must track the f64 reference within the bound; values that
// do not must run the f64 binding: same kernel, same footprint,
// bit-identical results, and Opt reporting f64.
func checkPrecVariant(t *testing.T, e *Executor, label string, m *matrix.CSR, s float64, o ex.Optim) {
	t.Helper()
	if s == 1 {
		o.Precision = ex.PrecF32
		precCheck(t, label, m, formats.F32EntryBound, e.Prepare(m, o).MulVec)
		return
	}
	m = scaled(m, s)
	if formats.FitsF32(m.Val) {
		t.Fatalf("%s: values scaled by %g must not fit float32", label, s)
	}
	want := e.Prepare(m, o).(*Prepared)
	o.Precision = ex.PrecF32
	got := e.Prepare(m, o).(*Prepared)
	if got.Kernel() != want.Kernel() || got.MemBytes() != want.MemBytes() {
		t.Fatalf("%s x%g: binding %s/%d, want the f64 binding %s/%d",
			label, s, got.Kernel(), got.MemBytes(), want.Kernel(), want.MemBytes())
	}
	if p := got.Opt().Precision; p != ex.PrecF64 {
		t.Fatalf("%s x%g: Opt().Precision = %s, want f64", label, s, p)
	}
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + 0.25*float64(i%7)
	}
	yw := make([]float64, m.NRows)
	yg := make([]float64, m.NRows)
	want.MulVec(x, yw)
	got.MulVec(x, yg)
	for i := range yw {
		if math.Float64bits(yw[i]) != math.Float64bits(yg[i]) {
			t.Fatalf("%s x%g: y[%d] = %g, want %g bit for bit", label, s, i, yg[i], yw[i])
		}
	}
}

func TestPreparedPrecMatchesReference(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.PowerLaw(3000, 6, 1.9, 900, 21)
	for vname, scales := range precVariants() {
		for oname, o := range precOptims() {
			t.Run(vname+"/"+oname, func(t *testing.T) {
				for _, s := range scales {
					checkPrecVariant(t, e, vname+"/"+oname, m, s, o)
				}
			})
		}
	}
}

func TestPreparedPrecSSSMatchesReference(t *testing.T) {
	e := New()
	defer e.Close()
	m := symMatrix(2500, 23)
	for vname, scales := range precVariants() {
		t.Run(vname, func(t *testing.T) {
			for _, s := range scales {
				checkPrecVariant(t, e, "sss/"+vname, m, s, ex.Optim{Symmetric: true})
			}
		})
	}
}

// TestPreparedPrecMulMat: the blocked multi-RHS precision paths must
// match k independent f64 reference multiplies within the bound.
func TestPreparedPrecMulMat(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.PowerLaw(1500, 5, 2.0, 500, 29)
	for oname, o := range map[string]ex.Optim{
		"csr":    {Precision: ex.PrecF32},
		"sellcs": {SellCS: true, Vectorize: true, Precision: ex.PrecF32},
	} {
		for _, k := range []int{2, 3, 8} {
			p := e.Prepare(m, o)
			x := make([]float64, m.NCols*k)
			for i := range x {
				x[i] = 1 + 0.25*float64(i%5)
			}
			y := make([]float64, m.NRows*k)
			p.MulMat(x, y, k)
			// Check lane 0 against the single-vector reference walk.
			xl := make([]float64, m.NCols)
			for j := 0; j < m.NCols; j++ {
				xl[j] = x[j*k]
			}
			ref := make([]float64, m.NRows)
			scale := make([]float64, m.NRows)
			for i := 0; i < m.NRows; i++ {
				var sum, sc float64
				for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
					pr := m.Val[j] * xl[m.ColInd[j]]
					sum += pr
					sc += math.Abs(pr)
				}
				ref[i], scale[i] = sum, sc
			}
			tol := formats.F32EntryBound + 64*0x1p-52
			for i := 0; i < m.NRows; i++ {
				if math.Abs(y[i*k]-ref[i]) > tol*scale[i] {
					t.Fatalf("%s k=%d: y[%d] = %g, want %g", oname, k, i, y[i*k], ref[i])
				}
			}
		}
	}
}

// TestPrecEffectivePrecisionFallbacks: formats without a reduced value
// stream (Delta, Split) and bound kernels silently execute exact f64 —
// the knob is inert, not an error — and the engine must produce the
// same result as the f64 path.
func TestPrecEffectivePrecisionFallbacks(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.Banded(1200, 5, 0.8, 11)
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + 0.5*float64(i%3)
	}
	for name, o := range map[string]ex.Optim{
		"delta": {Compress: true, Precision: ex.PrecF32},
		"split": {Split: true, Precision: ex.PrecF32},
	} {
		if got := o.EffectivePrecision(); got != ex.PrecF64 {
			t.Fatalf("%s: EffectivePrecision = %v, want f64", name, got)
		}
		want := make([]float64, m.NRows)
		e.Prepare(m, ex.Optim{Compress: o.Compress, Split: o.Split}).MulVec(x, want)
		got := make([]float64, m.NRows)
		e.Prepare(m, o).MulVec(x, got)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: inert precision knob changed y[%d]: %g vs %g", name, i, got[i], want[i])
			}
		}
	}
}

// TestPrecFootprintShrinks: the prepared kernel's reported matrix
// bytes under f32 must be well below the f64 format's — the quantity
// the serving layer's memory budget and the cost model both consume.
func TestPrecFootprintShrinks(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.UniformRandom(4000, 9, 41)
	full := e.Prepare(m, ex.Optim{}).(*Prepared).matrixBytes
	red := e.Prepare(m, ex.Optim{Precision: ex.PrecF32}).(*Prepared).matrixBytes
	if red >= full {
		t.Fatalf("f32 footprint %d not below f64 %d", red, full)
	}
	// Value stream halves: 12 bytes/nnz -> 8 bytes/nnz plus row
	// pointers; anything above 85%% means the reduction didn't happen.
	if float64(red) > 0.85*float64(full) {
		t.Fatalf("f32 footprint %d barely below f64 %d", red, full)
	}
}

// TestAllocFreePrec extends the zero-alloc steady-state guard to every
// reduced-precision prepared path and its f64 fallback.
func TestAllocFreePrec(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.FewDenseRows(5000, 5, 2, 1800, 37)
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + float64(i%3)
	}
	y := make([]float64, m.NRows)
	for vname, scales := range precVariants() {
		mv := scaled(m, scales[0])
		for oname, o := range precOptims() {
			o.Precision = ex.PrecF32
			t.Run(vname+"/"+oname, func(t *testing.T) {
				p := e.Prepare(mv, o)
				for i := 0; i < 3; i++ {
					p.MulVec(x, y)
				}
				if avg := testing.AllocsPerRun(10, func() { p.MulVec(x, y) }); avg != 0 {
					t.Fatalf("%s/%s: %.1f allocs per steady-state MulVec, want 0", vname, oname, avg)
				}
			})
		}
	}
}

// TestAllocFreePrecSSS: the symmetric reduced path includes the
// two-phase reduction; it too must be allocation-free.
func TestAllocFreePrecSSS(t *testing.T) {
	e := New()
	defer e.Close()
	m := symMatrix(3000, 43)
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + float64(i%3)
	}
	y := make([]float64, m.NRows)
	for vname, scales := range precVariants() {
		p := e.Prepare(scaled(m, scales[0]), ex.Optim{Symmetric: true, Precision: ex.PrecF32})
		for i := 0; i < 3; i++ {
			p.MulVec(x, y)
		}
		if avg := testing.AllocsPerRun(10, func() { p.MulVec(x, y) }); avg != 0 {
			t.Fatalf("sss/%s: %.1f allocs per steady-state MulVec, want 0", vname, avg)
		}
	}
}
