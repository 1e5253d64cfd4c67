package native

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// refCheck compares y against the sequential reference for x.
func refCheck(t *testing.T, m *matrix.CSR, x, got []float64, label string) {
	t.Helper()
	want := make([]float64, m.NRows)
	m.MulVec(x, want)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("%s: y[%d] = %g, want %g", label, i, got[i], want[i])
		}
	}
}

func TestPoolRunCoversEverySlot(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, nt := range []int{1, 2, 4} {
		var hits [4]int
		var mu sync.Mutex
		p.Run(nt, func(t int) {
			mu.Lock()
			hits[t]++
			mu.Unlock()
		})
		for s := 0; s < nt; s++ {
			if hits[s] != 1 {
				t.Fatalf("nt=%d: slot %d ran %d times", nt, s, hits[s])
			}
		}
	}
}

func TestPoolOversizedDispatchFallsBack(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var hits [8]int
	var mu sync.Mutex
	p.Run(8, func(t int) {
		mu.Lock()
		hits[t]++
		mu.Unlock()
	})
	for s := range hits {
		if hits[s] != 1 {
			t.Fatalf("slot %d ran %d times", s, hits[s])
		}
	}
}

func TestPoolCloseIdempotentAndUsableAfter(t *testing.T) {
	p := NewPool(4)
	p.Close()
	p.Close() // must not panic
	ran := make([]bool, 3)
	p.Run(3, func(t int) { ran[t] = true })
	for s, ok := range ran {
		if !ok {
			t.Fatalf("slot %d did not run after Close", s)
		}
	}
}

func TestExecutorCloseIdempotent(t *testing.T) {
	e := New()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedMatchesReference(t *testing.T) {
	mats := map[string]*matrix.CSR{
		"uniform":  gen.UniformRandom(3000, 7, 11),
		"skewed":   gen.FewDenseRows(3000, 4, 2, 1500, 12),
		"powerlaw": gen.PowerLaw(3000, 6, 2.0, 800, 13),
	}
	opts := map[string]ex.Optim{
		"baseline":       {},
		"compress":       {Format: ex.FormatDelta},
		"split":          {Format: ex.FormatSplit},
		"vec+prefetch":   {Vectorize: true, Prefetch: true},
		"dynamic":        {Schedule: sched.Dynamic},
		"guided":         {Schedule: sched.Guided},
		"sellcs":         {Format: ex.FormatSellCS, Vectorize: true},
		"sellcs-dynamic": {Format: ex.FormatSellCS, Vectorize: true, Schedule: sched.Dynamic},
	}
	e := New()
	defer e.Close()
	for mn, m := range mats {
		for on, o := range opts {
			t.Run(mn+"/"+on, func(t *testing.T) {
				p := e.Prepare(m, o)
				rng := rand.New(rand.NewSource(7))
				x := make([]float64, m.NCols)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				y := make([]float64, m.NRows)
				// Repeated multiplies must stay correct (buffers and
				// cursors reset per call).
				for it := 0; it < 3; it++ {
					p.MulVec(x, y)
				}
				refCheck(t, m, x, y, mn+"/"+on)
			})
		}
	}
}

func TestPreparedMemoized(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.UniformRandom(1000, 5, 3)
	o := ex.Optim{Vectorize: true}
	p1 := e.Prepare(m, o)
	p2 := e.Prepare(m, o)
	if p1 != p2 {
		t.Fatal("prepared kernel not memoized")
	}
	if p3 := e.Prepare(m, ex.Optim{Format: ex.FormatDelta}); p3 == p1 {
		t.Fatal("distinct configurations share a kernel")
	}
}

// TestPreparedMemoizedCanonical checks that knob sets binding the same
// kernel share one memoized Prepared: the cache keys on the canonical
// form, so a prefetch+unroll plan costs no second compilation.
func TestPreparedMemoizedCanonical(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.UniformRandom(1000, 5, 3)
	p := e.Prepare(m, ex.Optim{Vectorize: true})
	if q := e.Prepare(m, ex.Optim{Vectorize: true, Prefetch: true, Unroll: true}); q != p {
		t.Fatal("vec+prefetch+unroll did not share the vec kernel")
	}
	d := e.Prepare(m, ex.Optim{Format: ex.FormatDelta})
	if q := e.Prepare(m, ex.Optim{Format: ex.FormatDelta, Vectorize: true, Schedule: sched.Dynamic}); q != d {
		t.Fatal("compress+vec@dynamic did not share the compress kernel")
	}
}

// TestPreparedConcurrentMulVec drives one prepared kernel from many
// goroutines at once; run with -race this is the engine's thread-safety
// proof. Each goroutine owns its output vector, the kernel serializes
// dispatches internally.
func TestPreparedConcurrentMulVec(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.FewDenseRows(4000, 5, 3, 2000, 21)
	for _, o := range []ex.Optim{{}, {Format: ex.FormatSplit}, {Format: ex.FormatDelta}, {Schedule: sched.Dynamic}, {Format: ex.FormatSellCS, Vectorize: true}} {
		p := e.Prepare(m, o)
		rng := rand.New(rand.NewSource(3))
		x := make([]float64, m.NCols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		const callers = 8
		ys := make([][]float64, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			ys[c] = make([]float64, m.NRows)
			wg.Add(1)
			go func(y []float64) {
				defer wg.Done()
				for it := 0; it < 4; it++ {
					p.MulVec(x, y)
				}
			}(ys[c])
		}
		wg.Wait()
		for c := 0; c < callers; c++ {
			refCheck(t, m, x, ys[c], o.String())
		}
	}
}

// batchBindings is every binding family a batch runs on: the CSR
// float64 bodies, which stream groups of 8 and 4 vectors through the
// register-blocked body, and every body that runs a batch vector by
// vector.
func batchBindings() map[string]ex.Optim {
	f32 := ex.PrecF32
	return map[string]ex.Optim{
		"csr":          {},
		"csr-vec8":     {Vectorize: true},
		"csr-dynamic":  {Schedule: sched.Dynamic},
		"csr-f32":      {Precision: f32},
		"csr-vec8-f32": {Vectorize: true, Precision: f32},
		"delta":        {Format: ex.FormatDelta},
		"sellcs-c8":    {Format: ex.FormatSellCS, Vectorize: true},
		"sellcs-f32":   {Format: ex.FormatSellCS, Precision: f32},
		"sss":          {Format: ex.FormatSSS},
		"sss-f32":      {Format: ex.FormatSSS, Precision: f32},
	}
}

// column returns vector l of the interleaved k-wide block b.
func column(b []float64, k, l int) []float64 {
	v := make([]float64, len(b)/k)
	for i := range v {
		v[i] = b[i*k+l]
	}
	return v
}

// perColumn applies the single-vector multiply mul to every column of
// the interleaved k-wide block x, writing the interleaved block y.
func perColumn(x, y []float64, k int, mul func(x, y []float64)) {
	yv := make([]float64, len(y)/k)
	for l := 0; l < k; l++ {
		mul(column(x, k, l), yv)
		for i, v := range yv {
			y[i*k+l] = v
		}
	}
}

// nearRef fails unless got is within 1e-12 relative of want.
func nearRef(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("%s: y[%d] = %g, want %g", label, i, got[i], want[i])
		}
	}
}

// TestPreparedMulVecBatch runs every binding's batch paths, MulVecBatch
// and MulMat, at k = 17 down to 1 on one Prepared per binding, so every
// group shape runs (8+8+1, 8+4, one group of 4 plus a remainder) and
// the engine scratch shrinks under it. Every binding runs on a
// symmetric matrix, and every binding but SSS also on a skewed one
// whose few dense rows make the dynamic schedule's chunk cursor hand
// out unequal work. Only the CSR float64 binding blocks: its
// register-blocked groups (8, then one of 4) must stay within 1e-12 of
// the reference CSR MulMat. Every other vector, and every vector of
// every other binding, must equal the binding's own MulVec bit for bit.
func TestPreparedMulVecBatch(t *testing.T) {
	e := New()
	defer e.Close()
	mats := []*matrix.CSR{symMatrix(1500, 61), gen.FewDenseRows(2000, 5, 2, 900, 5)}
	for name, o := range batchBindings() {
		for _, m := range mats {
			if o.Format == ex.FormatSSS && m.Sym != matrix.SymSymmetric {
				continue
			}
			t.Run(name+"/"+m.Name, func(t *testing.T) { checkBatch(t, e, m, name, o) })
		}
	}
}

// checkBatch is one binding's row of TestPreparedMulVecBatch.
func checkBatch(t *testing.T, e *Executor, m *matrix.CSR, name string, o ex.Optim) {
	p := e.buildPrepared(m, o, 3, 0)
	blocks := strings.HasPrefix(name, "csr") && !strings.HasSuffix(name, "f32")
	if got := p.bodyBlock != nil; got != blocks {
		t.Fatalf("%s: blocked body = %v, want %v", p.Kernel(), got, blocks)
	}
	for k := 17; k >= 1; k-- {
		rng := rand.New(rand.NewSource(int64(k)))
		xs, ys, want := make([][]float64, k), make([][]float64, k), make([][]float64, k)
		for l := range xs {
			xs[l] = make([]float64, m.NCols)
			for i := range xs[l] {
				xs[l][i] = rng.NormFloat64()
			}
			ys[l], want[l] = make([]float64, m.NRows), make([]float64, m.NRows)
			p.MulVec(xs[l], want[l])
		}
		xb := matrix.PackBlock(nil, xs)
		ref := make([]float64, m.NRows*k)
		m.MulMat(xb, ref, k)
		grouped := 0
		if blocks {
			grouped = k/8*8 + k%8/4*4
		}
		// Twice: buffers and cursors must reset between batches.
		p.MulVecBatch(xs, ys)
		p.MulVecBatch(xs, ys)
		for l := range ys {
			label := fmt.Sprintf("MulVecBatch k=%d vector %d", k, l)
			if l < grouped {
				nearRef(t, label, ys[l], column(ref, k, l))
			} else {
				sameBits(t, label, ys[l], want[l])
			}
		}
		yb := make([]float64, m.NRows*k)
		p.MulMat(xb, yb, k)
		for l := 0; l < k; l++ {
			label := fmt.Sprintf("MulMat k=%d vector %d", k, l)
			if blocks && (k == 4 || k == 8) {
				nearRef(t, label, column(yb, k, l), column(ref, k, l))
			} else {
				sameBits(t, label, column(yb, k, l), want[l])
			}
		}
	}
}

// TestPreparedMulMat drives the interleaved-block entry point for
// every format at blocked and per-vector widths, including a width
// above the widest blocked group.
func TestPreparedMulMat(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.FewDenseRows(1500, 5, 2, 700, 6)
	opts := map[string]ex.Optim{
		"vec":      {Vectorize: true},
		"compress": {Format: ex.FormatDelta},
		"split":    {Format: ex.FormatSplit},
		"sellcs":   {Format: ex.FormatSellCS, Vectorize: true},
		"guided":   {Schedule: sched.Guided},
	}
	for on, o := range opts {
		p := e.Prepare(m, o)
		for _, k := range []int{1, 2, 3, 8, 12} {
			rng := rand.New(rand.NewSource(int64(13 * k)))
			xs := make([][]float64, k)
			for l := range xs {
				xs[l] = make([]float64, m.NCols)
				for i := range xs[l] {
					xs[l][i] = rng.NormFloat64()
				}
			}
			xb := matrix.PackBlock(nil, xs)
			yb := make([]float64, m.NRows*k)
			p.MulMat(xb, yb, k)
			yv := make([]float64, m.NRows)
			for l := 0; l < k; l++ {
				for i := 0; i < m.NRows; i++ {
					yv[i] = yb[i*k+l]
				}
				refCheck(t, m, xs[l], yv, on)
			}
		}
	}
}

func TestPreparedMulMatAliasPanics(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.UniformRandom(64, 3, 7)
	p := e.Prepare(m, ex.Optim{})
	v := make([]float64, 64*2)
	defer func() {
		if recover() == nil {
			t.Fatal("MulMat accepted aliased input and output")
		}
	}()
	p.MulMat(v, v, 2)
}

// TestPreparedUsableAfterClose: closing the executor parks the pool;
// kernels must keep computing correctly via the transient fallback.
func TestPreparedUsableAfterClose(t *testing.T) {
	e := New()
	m := gen.UniformRandom(2000, 6, 17)
	p := e.Prepare(m, ex.Optim{})
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y := make([]float64, m.NRows)
	p.MulVec(x, y)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	p.MulVec(x, y)
	refCheck(t, m, x, y, "after close")
}

func TestPreparedIntrospection(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.UniformRandom(1000, 5, 23)
	p := e.Prepare(m, ex.Optim{Vectorize: true, Prefetch: true}).(*Prepared)
	if p.Threads() < 1 {
		t.Fatalf("threads = %d", p.Threads())
	}
	// Opt reports the canonical form: vectorization subsumes prefetch,
	// and the plan runs the dispatched vector body ("csr-vec8-avx512"
	// etc., "csr-vec8" without asm).
	if p.Opt() != (ex.Optim{Vectorize: true}) {
		t.Fatalf("opt = %v, want the canonical vec@static-nnz", p.Opt())
	}
	if !strings.HasPrefix(p.Kernel(), "csr-vec8") || strings.Contains(p.Kernel(), "prefetch") {
		t.Fatalf("kernel = %q", p.Kernel())
	}
	// A Split plan runs the same gather body under the auto schedule.
	if s := e.Prepare(m, ex.Optim{Format: ex.FormatSplit, Prefetch: true}).(*Prepared); s.Kernel() != p.Kernel() ||
		s.Opt() != (ex.Optim{Vectorize: true, Schedule: sched.Auto}) {
		t.Fatalf("split+prefetch binds %q as %v, want %q as vec@auto", s.Kernel(), s.Opt(), p.Kernel())
	}
	// The C=8 kernel name carries the dispatched ISA suffix
	// ("sellcs-c8-avx512" etc.) when assembly is in play, and every
	// SELL-C-σ knob set binds it.
	sell := e.Prepare(m, ex.Optim{Format: ex.FormatSellCS, Vectorize: true}).(*Prepared)
	if !strings.HasPrefix(sell.Kernel(), "sellcs-c8") {
		t.Fatalf("sellcs kernel = %q", sell.Kernel())
	}
	if s := e.Prepare(m, ex.Optim{Format: ex.FormatSellCS}).(*Prepared); s.Kernel() != sell.Kernel() {
		t.Fatalf("plain sellcs kernel = %q, want %q", s.Kernel(), sell.Kernel())
	}
}

// TestPreparedCacheBounded: a stream of distinct matrices through
// Prepare must not grow the kernel cache without bound.
func TestPreparedCacheBounded(t *testing.T) {
	e := New()
	defer e.Close()
	x := make([]float64, 20)
	y := make([]float64, 20)
	for i := 0; i < maxPreparedKernels+10; i++ {
		m := gen.Banded(20, 2, 1.0, int64(i))
		e.Prepare(m, ex.Optim{}).MulVec(x, y)
	}
	e.mu.Lock()
	n := len(e.prepared)
	e.mu.Unlock()
	if n > maxPreparedKernels {
		t.Fatalf("cache holds %d kernels, cap %d", n, maxPreparedKernels)
	}
}

// TestFormatCachesBounded: streaming distinct matrices through every
// converted-format path must not retain conversions without bound, and
// each (format, precision) kind keeps its full capacity — one kind's
// traffic must not evict another kind's conversions.
func TestFormatCachesBounded(t *testing.T) {
	e := New()
	defer e.Close()
	f32 := ex.PrecF32
	streams := []ex.Optim{
		{Format: ex.FormatDelta}, {Format: ex.FormatSellCS}, {Format: ex.FormatSSS},
		{Precision: f32}, {Format: ex.FormatSellCS, Precision: f32}, {Format: ex.FormatSSS, Precision: f32},
	}
	x := make([]float64, 20)
	y := make([]float64, 20)
	for i := 0; i < maxFormatCacheEntries+10; i++ {
		for j, o := range streams {
			seed := int64(i*len(streams) + j)
			m := gen.Banded(20, 2, 1.0, seed)
			if o.Format == ex.FormatSSS {
				m = symMatrix(20, seed)
			}
			e.Prepare(m, o).MulVec(x, y)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.conversions) != len(streams) {
		t.Fatalf("memo holds %d conversion kinds, want %d", len(e.conversions), len(streams))
	}
	for _, o := range streams {
		kind := conversionKind{o.Format, o.EffectivePrecision()}
		if n := len(e.conversions[kind]); n != maxFormatCacheEntries {
			t.Errorf("%v cache holds %d conversions, want the cap %d", kind, n, maxFormatCacheEntries)
		}
	}
}
