package native

// Engine tests for the symmetric (SSS) prepared path: correctness
// against the mirrored-CSR reference through the single barrier and
// the serial conflict-window fold, the window scratch bound, zero-alloc
// steady state for every entry point, and the matrix-bytes benchmark
// the acceptance criteria track.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/plan"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// symMatrix builds an exactly symmetric matrix (A + Aᵀ) big enough
// that the executor picks several worker slots.
func symMatrix(n int, seed int64) *matrix.CSR {
	src := gen.UniformRandom(n, 6, seed)
	coo := matrix.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		for j := src.RowPtr[i]; j < src.RowPtr[i+1]; j++ {
			c := int(src.ColInd[j])
			if c == i {
				continue
			}
			coo.Add(i, c, src.Val[j])
			coo.Add(c, i, src.Val[j])
		}
	}
	m := coo.ToCSR()
	m.Sym = matrix.SymSymmetric
	m.Name = "sym-test"
	return m
}

func TestPreparedSSSMatchesReference(t *testing.T) {
	e := New()
	defer e.Close()
	m := symMatrix(4000, 3)
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, m.NRows)
	m.MulVec(x, want)

	p := e.Prepare(m, ex.Optim{Format: ex.FormatSSS})
	if p.(*Prepared).Kernel() != "sss" {
		t.Fatalf("kernel = %q, want sss", p.(*Prepared).Kernel())
	}
	got := make([]float64, m.NRows)
	for trial := 0; trial < 3; trial++ { // reused buffers must re-zero
		p.MulVec(x, got)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: y[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestPreparedSSSMulMatMatchesReference(t *testing.T) {
	e := New()
	defer e.Close()
	m := symMatrix(1500, 7)
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{2, 3, 8} {
		x := make([]float64, m.NCols*k)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, m.NRows*k)
		m.MulMat(x, want, k)
		got := make([]float64, m.NRows*k)
		p := e.Prepare(m, ex.Optim{Format: ex.FormatSSS})
		p.MulMat(x, got, k)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("k=%d: y[%d] = %g, want %g", k, i, got[i], want[i])
			}
		}
	}
}

// TestPreparedSSSShrinkingBlockWidth is the stale-partials regression
// test: MulMat runs the SSS binding once per column over one set of
// conflict windows and scratch vectors, so widths that shrink and grow
// on the same kernel must not fold leftovers of an earlier column or
// call into y. Thread width is pinned above 1: the windows are empty
// at nt=1.
func TestPreparedSSSShrinkingBlockWidth(t *testing.T) {
	e := New()
	defer e.Close()
	m := symMatrix(1200, 41)
	p := e.buildPrepared(m, ex.Optim{Format: ex.FormatSSS}, 4, 0)
	rng := rand.New(rand.NewSource(19))
	for _, k := range []int{8, 2, 5, 3} { // shrink, grow, shrink
		x := make([]float64, m.NCols*k)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, m.NRows*k)
		m.MulMat(x, want, k)
		got := make([]float64, m.NRows*k)
		p.MulMat(x, got, k)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("k=%d: y[%d] = %g, want %g (stale partials from a previous width?)",
					k, i, got[i], want[i])
			}
		}
	}
}

// symFrom builds the symmetric matrix with the given diagonal and
// strictly lower entries, mirrored.
func symFrom(n int, diag map[int]float64, lower [][3]float64) *matrix.CSR {
	coo := matrix.NewCOO(n, n)
	for i, v := range diag {
		coo.Add(i, i, v)
	}
	for _, e := range lower {
		i, j := int(e[0]), int(e[1])
		coo.Add(i, j, e[2])
		coo.Add(j, i, e[2])
	}
	m := coo.ToCSR()
	m.Sym = matrix.SymSymmetric
	return m
}

// symWindowShapes are the structures the conflict windows must handle,
// each with the thread count and schedule it is bound at.
func symWindowShapes() []struct {
	name string
	m    *matrix.CSR
	nt   int
	s    sched.Policy
} {
	rng := rand.New(rand.NewSource(5))
	lap := gen.Poisson2D(30, 40) // bandwidth 40
	lap.Sym = matrix.SymSymmetric

	// Every fifth row empty (no diagonal, no entries); the rest random.
	var holes [][3]float64
	diag := map[int]float64{}
	for i := 0; i < 400; i++ {
		if i%5 == 0 {
			continue
		}
		diag[i] = 2
		for r := 0; r < 3; r++ {
			if j := rng.Intn(i + 1); j < i && j%5 != 0 {
				holes = append(holes, [3]float64{float64(i), float64(j), rng.NormFloat64()})
			}
		}
	}
	empty := symFrom(400, diag, holes)

	// Rows [150, 300) hold only their diagonal, inside a band of 7.
	var band [][3]float64
	diag = map[int]float64{}
	for i := 0; i < 450; i++ {
		diag[i] = 3
		if i >= 150 && i < 300 {
			continue
		}
		for j := i - 7; j < i; j++ {
			if j >= 0 && (j < 150 || j >= 300) {
				band = append(band, [3]float64{float64(i), float64(j), rng.NormFloat64()})
			}
		}
	}
	diagOnly := symFrom(450, diag, band)

	// The upper half is diagonal-only, so under equal-row partitions
	// slot 1 has rows but no lower entries, and an empty window.
	var top [][3]float64
	diag = map[int]float64{}
	for i := 0; i < 300; i++ {
		diag[i] = 5
		if i < 150 {
			for j := max(0, i-4); j < i; j++ {
				top = append(top, [3]float64{float64(i), float64(j), rng.NormFloat64()})
			}
		}
	}
	noLower := symFrom(300, diag, top)

	return []struct {
		name string
		m    *matrix.CSR
		nt   int
		s    sched.Policy
	}{
		{"banded", lap, 3, sched.StaticNNZ},
		{"wide-profile", symMatrix(500, 8), 4, sched.StaticNNZ},
		{"empty-rows", empty, 3, sched.StaticNNZ},
		{"diagonal-only-rows", diagOnly, 4, sched.StaticRows},
		{"nt-above-n", symFrom(3, map[int]float64{0: 1, 2: 2}, [][3]float64{{1, 0, 4}, {2, 1, -1}}), 8, sched.StaticNNZ},
		{"slot-without-lower", noLower, 2, sched.StaticRows},
	}
}

// checkRows compares y against A*x row by row, within tol of each row's
// magnitude scale Σ|a_ij x_j|.
func checkRows(t *testing.T, label string, m *matrix.CSR, x, y []float64, tol float64) {
	t.Helper()
	want := make([]float64, m.NRows)
	m.MulVec(x, want)
	for i := range want {
		var scale float64
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			scale += math.Abs(m.Val[j] * x[m.ColInd[j]])
		}
		if math.Abs(y[i]-want[i]) > tol*scale {
			t.Fatalf("%s: y[%d] = %.17g, want %.17g within %g*%g", label, i, y[i], want[i], tol, scale)
		}
	}
}

// TestPreparedSSSWindowShapes is the differential check of the
// conflict-window binding on every structure it special-cases, in
// both precisions: k ∈ {1, 2, 3, 8} through MulVec and MulMat, then
// the width sequence 4 → 2 → 1 → 4 on one prepared kernel, each
// multiply checked against the mirrored-CSR reference.
func TestPreparedSSSWindowShapes(t *testing.T) {
	e := New()
	defer e.Close()
	for _, sh := range symWindowShapes() {
		m := sh.m
		for _, prec := range []ex.Precision{ex.PrecF64, ex.PrecF32} {
			o := ex.Optim{Format: ex.FormatSSS, Schedule: sh.s, Precision: prec}
			tol := 1e-12
			if prec == ex.PrecF32 {
				tol = formats.F32EntryBound + 64*0x1p-52
			}
			rng := rand.New(rand.NewSource(int64(m.NRows)))
			run := func(p *Prepared, k int) {
				xs, ys := make([][]float64, k), make([][]float64, k)
				for l := range xs {
					xs[l], ys[l] = make([]float64, m.NCols), make([]float64, m.NRows)
					for j := range xs[l] {
						xs[l][j] = rng.NormFloat64()
					}
				}
				if k == 1 {
					p.MulVec(xs[0], ys[0])
				} else {
					y := make([]float64, m.NRows*k)
					p.MulMat(matrix.PackBlock(nil, xs), y, k)
					matrix.UnpackBlock(ys, y)
				}
				for l := range xs {
					checkRows(t, fmt.Sprintf("%s/%s k=%d nt=%d vector %d", sh.name, p.Kernel(), k, p.Threads(), l),
						m, xs[l], ys[l], tol)
				}
			}
			for _, k := range []int{1, 2, 3, 8} {
				run(e.buildPrepared(m, o, sh.nt, 0), k)
			}
			p := e.buildPrepared(m, o, sh.nt, 0)
			for _, k := range []int{4, 2, 1, 4} {
				run(p, k)
			}
		}
	}
}

// TestSSSScratchFollowsBandwidth: on lap3d (80³ rows, bandwidth 80²)
// at two threads, the reduction scratch is slot 1's conflict window of
// one bandwidth — at most 2·80² cells — not the nt·n cells of a
// full-vector buffer per thread, and the engine holds nothing more.
func TestSSSScratchFollowsBandwidth(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.Poisson3D(80, 80, 80)
	m.Sym = matrix.SymSymmetric
	for _, prec := range []ex.Precision{ex.PrecF64, ex.PrecF32} {
		p := e.buildPrepared(m, ex.Optim{Format: ex.FormatSSS, Precision: prec}, 2, 0)
		cells := p.ReduceCells()
		if cells <= 0 || cells > 2*80*80 {
			t.Fatalf("%s: %d window cells at nt=2, want (0, %d]", p.Kernel(), cells, 2*80*80)
		}
		if got := cap(p.red.buf); got != cells {
			t.Fatalf("%s: scratch %d cells, want the %d window cells", p.Kernel(), got, cells)
		}
	}
}

func TestPrepareSSSPanicsOnAsymmetric(t *testing.T) {
	e := New()
	defer e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Prepare accepted Symmetric on an asymmetric matrix")
		}
	}()
	e.Prepare(gen.UniformRandom(500, 4, 9), ex.Optim{Format: ex.FormatSSS})
}

// TestAllocFreeSSS extends the zero-alloc guards to the symmetric
// prepared paths: per-vector, batch, and interleaved MulMat (the CI
// alloc job runs -run TestAlloc).
func TestAllocFreeSSS(t *testing.T) {
	e := New()
	defer e.Close()
	m := symMatrix(3000, 21)
	o := ex.Optim{Format: ex.FormatSSS}
	p := e.Prepare(m, o)

	x := make([]float64, m.NCols)
	y := make([]float64, m.NRows)
	for i := range x {
		x[i] = 1 + float64(i%3)
	}
	for i := 0; i < 3; i++ {
		p.MulVec(x, y)
	}
	if avg := testing.AllocsPerRun(10, func() { p.MulVec(x, y) }); avg != 0 {
		t.Fatalf("MulVec: %.1f allocs per steady-state op, want 0", avg)
	}

	for _, batch := range []int{4, 9} {
		xs := make([][]float64, batch)
		ys := make([][]float64, batch)
		for b := range xs {
			xs[b] = make([]float64, m.NCols)
			ys[b] = make([]float64, m.NRows)
		}
		for i := 0; i < 3; i++ {
			p.MulVecBatch(xs, ys)
		}
		if avg := testing.AllocsPerRun(5, func() { p.MulVecBatch(xs, ys) }); avg != 0 {
			t.Fatalf("batch=%d: %.1f allocs per steady-state MulVecBatch, want 0", batch, avg)
		}
	}

	const k = 8
	xb := make([]float64, m.NCols*k)
	yb := make([]float64, m.NRows*k)
	for i := 0; i < 3; i++ {
		p.MulMat(xb, yb, k)
	}
	if avg := testing.AllocsPerRun(5, func() { p.MulMat(xb, yb, k) }); avg != 0 {
		t.Fatalf("MulMat: %.1f allocs per steady-state op, want 0", avg)
	}
}

// BenchmarkMulVecSSS compares the symmetric kernel against the plain
// CSR path on a bandwidth-bound symmetric matrix and reports each
// configuration's matrix-stream bytes — the acceptance signal that SSS
// moves measurably fewer matrix bytes per multiply.
func BenchmarkMulVecSSS(b *testing.B) {
	e := New()
	defer e.Close()
	m := symMatrix(60000, 31)
	x := make([]float64, m.NCols)
	y := make([]float64, m.NRows)
	for i := range x {
		x[i] = 1 + float64(i%5)*0.25
	}
	run := func(b *testing.B, o ex.Optim) {
		p := e.Prepare(m, o)
		p.MulVec(x, y)
		b.ReportMetric(float64(p.(*Prepared).matrixBytes), "matrix-bytes/op")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.MulVec(x, y)
		}
	}
	b.Run("csr", func(b *testing.B) { run(b, ex.Optim{}) })
	b.Run("sss", func(b *testing.B) { run(b, ex.Optim{Format: ex.FormatSSS}) })
}

// TestPreparePlanRejectsHugeBlockWidth: a well-formed SSS plan file
// with a 2^40 block width once made PreparePlan panic sizing the
// reduction windows. Plans no longer carry a block width, so the file
// fails at decode as an unknown field, and the same plan without the
// field compiles the SSS kernel.
func TestPreparePlanRejectsHugeBlockWidth(t *testing.T) {
	const file = `{"version":1,"machine":"host","classes":[],"format":"sss","schedule":"static-nnz","blockWidth":1099511627776,"symmetric":true}`
	if _, err := plan.Decode([]byte(file)); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("decode of the 2^40 block-width plan = %v, want an unknown-field error", err)
	}
	p, err := plan.Decode([]byte(strings.Replace(file, `"blockWidth":1099511627776,`, "", 1)))
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	defer e.Close()
	k, err := e.PreparePlan(symMatrix(200, 3), p)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.(*Prepared).Kernel(); got != "sss" {
		t.Fatalf("PreparePlan bound %q, want sss", got)
	}
}
