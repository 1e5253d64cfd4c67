package native

// Engine tests for the precision-reduced prepared paths: every
// schedule/format combination that honors f32 must run the float32
// instance of its body bit-identical to the float64 instance on
// rounded values, track the f64 CSR reference within the documented
// bound on values that fit float32, run its f64 binding on values that
// do not, report the smaller storage footprint, and stay
// allocation-free in steady state (the CI alloc job picks up
// TestAllocFreePrec via -run TestAlloc).

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/kernels"
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
// precision; all but "sss" run on an asymmetric matrix.
func precOptims() map[string]ex.Optim {
	return map[string]ex.Optim{
		"csr":         {},
		"csr-vec8":    {Vectorize: true},
		"csr-dynamic": {Schedule: sched.Dynamic},
		"csr-guided":  {Schedule: sched.Guided},
		"sellcs":      {Format: ex.FormatSellCS, Vectorize: true},
		"sellcs-dyn":  {Format: ex.FormatSellCS, Vectorize: true, Schedule: sched.Dynamic},
		"sss":         {Format: ex.FormatSSS},
	}
}

// precInput picks the matrix o is prepared on: sym for symmetric
// storage, asym otherwise.
func precInput(o ex.Optim, asym, sym *matrix.CSR) *matrix.CSR {
	if o.Format == ex.FormatSSS {
		return sym
	}
	return asym
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

// checkF32Binding prepares o at f32 on m scaled by s. Values that fit
// float32 must track the f64 reference within the bound; values that
// do not must run the f64 binding: same kernel, same footprint,
// bit-identical results, and Opt reporting f64.
func checkF32Binding(t *testing.T, e *Executor, label string, m *matrix.CSR, s float64, o ex.Optim) {
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
			if o.Format == ex.FormatSSS {
				continue // TestPreparedPrecSSSMatchesReference
			}
			t.Run(vname+"/"+oname, func(t *testing.T) {
				for _, s := range scales {
					checkF32Binding(t, e, vname+"/"+oname, m, s, o)
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
				checkF32Binding(t, e, "sss/"+vname, m, s, ex.Optim{Format: ex.FormatSSS})
			}
		})
	}
}

// TestPreparedPrecMulMat: the MulMat paths of the precision bindings
// must match k independent f64 reference multiplies within the bound.
func TestPreparedPrecMulMat(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.PowerLaw(1500, 5, 2.0, 500, 29)
	for oname, o := range map[string]ex.Optim{
		"csr":    {Precision: ex.PrecF32},
		"sellcs": {Format: ex.FormatSellCS, Vectorize: true, Precision: ex.PrecF32},
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
// stream (Delta, Split) silently execute exact f64 — the knob is
// inert, not an error — and the engine must produce the same result as
// the f64 path.
func TestPrecEffectivePrecisionFallbacks(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.Banded(1200, 5, 0.8, 11)
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + 0.5*float64(i%3)
	}
	for name, o := range map[string]ex.Optim{
		"delta": {Format: ex.FormatDelta, Precision: ex.PrecF32},
		"split": {Format: ex.FormatSplit, Precision: ex.PrecF32},
	} {
		if got := o.EffectivePrecision(); got != ex.PrecF64 {
			t.Fatalf("%s: EffectivePrecision = %v, want f64", name, got)
		}
		want := make([]float64, m.NRows)
		e.Prepare(m, ex.Optim{Format: o.Format}).MulVec(x, want)
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
// reduced-precision prepared path and its f64 fallback, the symmetric
// path's two-phase reduction included.
func TestAllocFreePrec(t *testing.T) {
	e := New()
	defer e.Close()
	asym := gen.FewDenseRows(5000, 5, 2, 1800, 37)
	sym := symMatrix(3000, 43)
	for vname, scales := range precVariants() {
		for oname, o := range precOptims() {
			o.Precision = ex.PrecF32
			m := scaled(precInput(o, asym, sym), scales[0])
			t.Run(vname+"/"+oname, func(t *testing.T) {
				x := make([]float64, m.NCols)
				for i := range x {
					x[i] = 1 + float64(i%3)
				}
				y := make([]float64, m.NRows)
				p := e.Prepare(m, o)
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

// TestPrecBytesAccounting: an f32 binding's footprint is its f64
// binding's less 4 bytes per stored value; SELL-C-σ's f32 form also
// drops the Width and InvPerm arrays its kernel never reads.
func TestPrecBytesAccounting(t *testing.T) {
	e := New()
	defer e.Close()
	asym := gen.UniformRandom(700, 7, 3)
	sym := symMatrix(600, 5)
	sell := e.SellCSOf(asym)
	for name, c := range map[string]struct {
		o    ex.Optim
		less int
	}{
		"csr":    {ex.Optim{}, asym.NNZ()},
		"sellcs": {ex.Optim{Format: ex.FormatSellCS}, len(sell.Vals) + len(sell.Width) + len(sell.InvPerm)},
		"sss":    {ex.Optim{Format: ex.FormatSSS}, e.SSSOf(sym).Lower.NNZ()},
	} {
		m := precInput(c.o, asym, sym)
		full := e.Prepare(m, c.o).(*Prepared).MemBytes()
		c.o.Precision = ex.PrecF32
		if got, want := e.Prepare(m, c.o).(*Prepared).MemBytes(), full-4*int64(c.less); got != want {
			t.Errorf("%s: f32 MemBytes %d, want %d (f64 %d less 4 bytes x %d)", name, got, want, full, c.less)
		}
	}
}

// rounded returns a copy of m whose values are their float32 images
// widened back: the values the float64 oracle of a float32 instance
// runs on.
func rounded(m *matrix.CSR) *matrix.CSR {
	r := m.Clone()
	for j, v := range r.Val {
		r.Val[j] = float64(float32(v))
	}
	return r
}

// emptyRowMatrix returns an n×n matrix with every third row empty and
// one long row at n/2. The symmetric form mirrors every entry and
// keeps the empty rows' columns empty too. No coordinate repeats, so
// no duplicate sum can break the mirror's bit equality.
func emptyRowMatrix(n int, symmetric bool) *matrix.CSR {
	rng := rand.New(rand.NewSource(int64(n)))
	coo := matrix.NewCOO(n, n)
	for i := 0; i < n; i++ {
		if i%3 == 1 {
			continue
		}
		cnt := 4
		if i == n/2 {
			cnt = n / 2
		}
		seen := map[int]bool{}
		for k := 0; k < cnt; k++ {
			j := rng.Intn(n)
			if seen[j] || j%3 == 1 || (symmetric && j >= i) {
				continue
			}
			seen[j] = true
			v := rng.NormFloat64()
			coo.Add(i, j, v)
			if symmetric {
				coo.Add(j, i, v)
			}
		}
		if symmetric {
			coo.Add(i, i, 4)
		}
	}
	m := coo.ToCSR()
	if symmetric {
		m.Sym = matrix.SymSymmetric
	}
	return m
}

// sameBits fails unless got and want agree bit for bit, NaN matching
// NaN.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: y[%d] = %.17g, want %.17g bit for bit", label, i, got[i], want[i])
		}
	}
}

// TestPrecF32InstanceBitIdentical runs every loop shape's float32
// instance through the prepared engine and holds it bit-identical to
// the float64 instance of the same body on float64(float32(v)) values:
// both compute the same products in the same order. MulMat runs at
// k = 1, 3 and 8, one column at a time, so the oracle runs column by
// column too. Row-owning shapes (CSR, SELL-C-σ) are
// partition-independent, so their oracle runs the float64 body over
// all rows; the symmetric body's window folds depend on the partition,
// so its oracle is the f64 binding at the same width. A matrix that
// fails FitsF32 must bind f64 under the same f32 configuration: same
// kernel, f64 reported, bit-identical results.
func TestPrecF32InstanceBitIdentical(t *testing.T) {
	e := New()
	defer e.Close()
	type oracle func(r *matrix.CSR, nt int, x, y []float64)
	shapes := []struct {
		name   string
		o      ex.Optim
		kernel string
		mulVec oracle
	}{
		{"csr", ex.Optim{}, "prec-csr-f32", func(r *matrix.CSR, _ int, x, y []float64) {
			kernels.CSRRange(r, x, y, 0, r.NRows)
		}},
		{"csr-vec8", ex.Optim{Vectorize: true}, "prec-csr-vec8-f32", func(r *matrix.CSR, _ int, x, y []float64) {
			kernels.CSRVector8Range(r, x, y, 0, r.NRows)
		}},
		{"sellcs", ex.Optim{Format: ex.FormatSellCS, Vectorize: true}, "prec-sellcs-f32", func(r *matrix.CSR, _ int, x, y []float64) {
			formats.ConvertSellCSAuto(r).MulVec(x, y)
		}},
		{"sss", ex.Optim{Format: ex.FormatSSS}, "prec-sss-f32", func(r *matrix.CSR, nt int, x, y []float64) {
			e.buildPrepared(r, ex.Optim{Format: ex.FormatSSS}, nt, 0).MulVec(x, y)
		}},
	}
	inputs := map[string][2]*matrix.CSR{
		"powerlaw":   {gen.PowerLaw(1200, 6, 1.9, 400, 61), symMatrix(900, 63)},
		"empty-rows": {emptyRowMatrix(700, false), emptyRowMatrix(600, true)},
	}
	for _, sh := range shapes {
		for iname, in := range inputs {
			m := precInput(sh.o, in[0], in[1])
			r := rounded(m)
			unfit := scaled(m, 1e300)
			for _, policy := range []sched.Policy{sched.StaticNNZ, sched.Dynamic} {
				for _, nt := range []int{1, 2} {
					o := sh.o
					o.Schedule = policy
					o64 := o
					o.Precision = ex.PrecF32
					t.Run(fmt.Sprintf("%s/%s/%s/nt=%d", sh.name, iname, policy, nt), func(t *testing.T) {
						p := e.buildPrepared(m, o, nt, 0)
						if p.Kernel() != sh.kernel {
							t.Fatalf("kernel %q, want %q", p.Kernel(), sh.kernel)
						}
						fb, want64 := e.buildPrepared(unfit, o, nt, 0), e.buildPrepared(unfit, o64, nt, 0)
						if fb.Kernel() != want64.Kernel() || fb.Opt().Precision != ex.PrecF64 {
							t.Fatalf("unfit values bound %s/%s, want the f64 binding %s",
								fb.Kernel(), fb.Opt().Precision, want64.Kernel())
						}
						rng := rand.New(rand.NewSource(int64(nt)))
						for _, k := range []int{1, 3, 8} {
							// Full-mantissa x: products of float32 values
							// and short-mantissa x sum exactly in any
							// order, which would hide a reordered body.
							x := make([]float64, m.NCols*k)
							for i := range x {
								x[i] = 1 + rng.Float64()
							}
							got := make([]float64, m.NRows*k)
							want := make([]float64, m.NRows*k)
							p.MulMat(x, got, k)
							perColumn(x, want, k, func(x, y []float64) { sh.mulVec(r, nt, x, y) })
							sameBits(t, fmt.Sprintf("k=%d", k), got, want)
							fb.MulMat(x, got, k)
							want64.MulMat(x, want, k)
							sameBits(t, fmt.Sprintf("unfit k=%d", k), got, want)
						}
					})
				}
			}
		}
	}
}
