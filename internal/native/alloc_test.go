package native

// Zero-allocation regression guard: the prepared engine's contract is
// that a steady-state MulVec does no planning work and no heap
// allocation — PR 1 verified this with a benchmark; this test makes it
// a failing check for every optimization path, including SELL-C-σ.
// The CI alloc job runs exactly these tests (-run TestAlloc).

import (
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// allocOptims is every distinct prepared execution path, one row per
// (binding, schedule) pair: the plain and vectorized row kernels, each
// converted format (DeltaCSR through its dispatched vector decoder,
// SELL-C-σ), a Split plan (the gather body under the auto schedule),
// and the cursor-driven dynamic and guided schedules. Knobs the host
// folds into one of these (prefetch, unroll) add no path;
// TestAllocOptimsDistinct keeps them out.
func allocOptims() map[string]ex.Optim {
	return map[string]ex.Optim{
		"baseline":       {},
		"vec8":           {Vectorize: true},
		"compress":       {Format: ex.FormatDelta},
		"split":          {Format: ex.FormatSplit},
		"sellcs":         {Format: ex.FormatSellCS, Vectorize: true},
		"sellcs-dynamic": {Format: ex.FormatSellCS, Vectorize: true, Schedule: sched.Dynamic},
		"dynamic":        {Schedule: sched.Dynamic},
		"guided":         {Schedule: sched.Guided},
	}
}

// TestAllocOptimsDistinct fails when two allocOptims rows bind the
// same kernel under the same schedule: such a row times a path
// another row already covers.
func TestAllocOptimsDistinct(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.FewDenseRows(6000, 5, 2, 2000, 31)
	seen := map[string]string{}
	for name, o := range allocOptims() {
		p := e.Prepare(m, o).(*Prepared)
		path := p.Kernel() + "@" + p.Opt().Schedule.String()
		if prev, ok := seen[path]; ok {
			t.Errorf("rows %s and %s both bind %s", prev, name, path)
		}
		seen[path] = name
	}
}

func TestAllocFreeSteadyStateMulVec(t *testing.T) {
	e := New()
	defer e.Close()
	// Skewed enough that auto schedules dynamically and SELL pads;
	// large enough that multiple worker slots engage.
	m := gen.FewDenseRows(6000, 5, 2, 2000, 31)
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + float64(i%3)
	}
	y := make([]float64, m.NRows)
	for name, o := range allocOptims() {
		t.Run(name, func(t *testing.T) {
			p := e.Prepare(m, o)
			if k := p.(*Prepared).Kernel(); o.Format == ex.FormatDelta && k != kernels.DeltaVariantName() {
				t.Fatalf("%s binds %q, want the dispatched delta decoder %q", name, k, kernels.DeltaVariantName())
			}
			// Warm: first calls may grow goroutine stacks or touch
			// lazy runtime state; the steady-state contract starts
			// after that.
			for i := 0; i < 3; i++ {
				p.MulVec(x, y)
			}
			if avg := testing.AllocsPerRun(10, func() { p.MulVec(x, y) }); avg != 0 {
				t.Fatalf("%s: %.1f allocs per steady-state MulVec, want 0", name, avg)
			}
		})
	}
}

// TestAllocFreeBatch covers the batch serving path: after the first
// call (which sizes the CSR binding's pack buffers) it must stay
// allocation-free for every prepared path, including batch shapes that
// take a register-blocked group of 8 or 4 and the per-vector
// remainder.
func TestAllocFreeBatch(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.FewDenseRows(4000, 5, 2, 1500, 33)
	for _, batch := range []int{4, 9} {
		xs := make([][]float64, batch)
		ys := make([][]float64, batch)
		for b := range xs {
			xs[b] = make([]float64, m.NCols)
			ys[b] = make([]float64, m.NRows)
		}
		for name, o := range allocOptims() {
			p := e.Prepare(m, o)
			// Warm: the first blocked batch allocates the pack buffers.
			for i := 0; i < 3; i++ {
				p.MulVecBatch(xs, ys)
			}
			if avg := testing.AllocsPerRun(5, func() { p.MulVecBatch(xs, ys) }); avg != 0 {
				t.Fatalf("%s batch=%d: %.1f allocs per steady-state MulVecBatch, want 0", name, batch, avg)
			}
		}
	}
}

// TestAllocFreeMulMat: the interleaved-block entry point works on
// caller-owned buffers and must allocate nothing at a stable width,
// both where the CSR binding blocks (k=8) and on the per-column
// fallback every binding takes at k=3, whose gather and product
// vectors live on the Prepared.
func TestAllocFreeMulMat(t *testing.T) {
	e := New()
	defer e.Close()
	m := gen.FewDenseRows(4000, 5, 2, 1500, 34)
	for _, k := range []int{3, 8} {
		x := make([]float64, m.NCols*k)
		y := make([]float64, m.NRows*k)
		for i := range x {
			x[i] = 1 + float64(i%5)
		}
		for name, o := range allocOptims() {
			p := e.Prepare(m, o)
			for i := 0; i < 3; i++ {
				p.MulMat(x, y, k)
			}
			if avg := testing.AllocsPerRun(5, func() { p.MulMat(x, y, k) }); avg != 0 {
				t.Fatalf("%s k=%d: %.1f allocs per steady-state MulMat, want 0", name, k, avg)
			}
		}
	}
}
