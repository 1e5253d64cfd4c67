package native

import (
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// countCached reports how many cached resources the executor holds for
// m across the format memos and the prepared-kernel cache.
func countCached(e *Executor, m *matrix.CSR) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, kind := range e.conversions {
		if _, ok := kind[m]; ok {
			n++
		}
	}
	for k := range e.prepared {
		if k.m == m {
			n++
		}
	}
	return n
}

// TestExecutorRelease checks the per-matrix eviction hook: releasing
// one matrix drops its format conversions (every format and precision
// kind) and prepared kernels, leaves every other matrix's cache intact,
// and already-issued kernels keep computing correct results.
func TestExecutorRelease(t *testing.T) {
	e := New()
	defer e.Close()

	m1 := gen.Banded(3000, 4, 0.9, 1)
	m2 := gen.UniformRandom(2500, 6, 2)
	m3 := symMatrix(1500, 5)

	// Populate kernel + format caches for all three matrices: m1 gets
	// the asymmetric conversions at every precision, m3 the symmetric
	// ones, m2 a plain CSR kernel and a SELL conversion.
	f32 := ex.PrecF32
	k1 := e.Prepare(m1, ex.Optim{Format: ex.FormatDelta})
	k2 := e.Prepare(m2, ex.Optim{})
	e.Prepare(m2, ex.Optim{Format: ex.FormatSellCS})
	for _, o := range []ex.Optim{
		{Unroll: true}, {Format: ex.FormatSplit}, {Precision: f32}, {Format: ex.FormatSellCS, Precision: f32},
	} {
		e.Prepare(m1, o)
	}
	e.Prepare(m3, ex.Optim{Format: ex.FormatSSS, Precision: f32})

	// m1: 5 kernels + delta, f32 CSR, SELL and its f32 form (the
	// Split kernel converts nothing: it runs the CSR gather body).
	// m3: 1 kernel + SSS and its f32 form.
	for _, c := range []struct {
		name string
		m    *matrix.CSR
		want int
	}{{"m1", m1, 5 + 4}, {"m2", m2, 2 + 1}, {"m3", m3, 1 + 2}} {
		if n := countCached(e, c.m); n != c.want {
			t.Fatalf("%s cached resources = %d, want %d", c.name, n, c.want)
		}
	}

	e.Release(m1)
	e.Release(m3)
	for _, m := range []*matrix.CSR{m1, m3} {
		if n := countCached(e, m); n != 0 {
			t.Fatalf("%s cached resources after Release = %d, want 0", m.Name, n)
		}
	}
	if n := countCached(e, m2); n != 3 {
		t.Fatalf("Release disturbed m2's cache (now %d entries, want 3)", n)
	}

	// The released kernel still works for its holder.
	x := make([]float64, m1.NCols)
	for i := range x {
		x[i] = 1 + float64(i%7)*0.5
	}
	y := make([]float64, m1.NRows)
	ref := make([]float64, m1.NRows)
	k1.MulVec(x, y)
	m1.MulVec(x, ref)
	for i := range y {
		if d := y[i] - ref[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("released kernel wrong at %d: %g vs %g", i, y[i], ref[i])
		}
	}

	// A fresh Prepare after release rebuilds and re-memoizes.
	k1b := e.Prepare(m1, ex.Optim{Format: ex.FormatDelta})
	if k1b == k1 {
		t.Fatalf("Prepare after Release returned the evicted kernel")
	}
	if n := countCached(e, m1); n < 2 {
		t.Fatalf("re-Prepare did not repopulate caches: %d entries", n)
	}
	_ = k2

	// Releasing an unknown matrix is a no-op.
	e.Release(gen.Diagonal(64, 9))
}

// TestExecutorReleaseMemBytes checks the footprint a budgeted cache
// accounts: converted formats report their own storage, CSR kernels the
// source arrays.
func TestExecutorReleaseMemBytes(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.Banded(2000, 5, 0.9, 3)

	p := e.Prepare(m, ex.Optim{}).(*Prepared)
	if p.MemBytes() != m.Bytes() {
		t.Fatalf("CSR kernel MemBytes = %d, want %d", p.MemBytes(), m.Bytes())
	}
	d := e.Prepare(m, ex.Optim{Format: ex.FormatDelta}).(*Prepared)
	if d.MemBytes() <= 0 || d.MemBytes() == m.Bytes() {
		t.Fatalf("delta kernel MemBytes = %d, want converted footprint != CSR %d", d.MemBytes(), m.Bytes())
	}
}
