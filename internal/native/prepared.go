package native

import (
	"sync"
	"sync/atomic"
	"time"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// Prepared is a compiled SpMV kernel for one (matrix, optimization)
// pair: the converted format (DeltaCSR, SELL-C-σ, SSS), the resolved
// schedule partitions, the reduction windows and the chosen kernel
// function are all materialized at construction, so a steady-state MulVec does
// no planning work and zero heap allocations — it wakes the persistent
// workers, runs the kernel, and returns. This is the object the facade's
// Tuned wraps and the foundation of the repeated-multiply serving path.
type Prepared struct {
	m          *matrix.CSR
	opt        ex.Optim
	nt         int
	kernelName string
	pool       *Pool // every dispatch, measured or served, runs here
	// matrixBytes is the matrix stream the compiled kernel actually
	// reads per multiply: the converted format's footprint when one
	// was built (SSS ≈ half the mirrored CSR, Delta's compressed
	// index stream, SELL's padded arrays), the CSR arrays otherwise.
	matrixBytes int64

	// mu serializes multiplies on this kernel; concurrent callers are
	// safe and run back to back.
	mu sync.Mutex
	// x, y are the current operands, published to the workers through
	// the pool dispatch barrier.
	x, y []float64
	// timing, when non-nil, receives per-thread busy seconds (the
	// measurement path of Run; nil — and cost-free — in steady state).
	timing []float64
	// next is the shared cursor of dynamic/guided schedules, reset
	// before each dispatch.
	next atomic.Int64

	// body computes slot t's share of one operation; finish, when
	// non-nil, runs on the dispatching goroutine after the barrier (the
	// SSS window fold).
	body   func(t int)
	finish func()
	// red is the reduction engine finish folds from; nil for kernels
	// that write y directly.
	red *reducer

	// bodyBlock, non-nil only for the CSR float64 binding, computes
	// slot t's share of one register-blocked multiply of bk ∈ {4, 8}
	// vectors, reading x/y as an interleaved block.
	bk        int
	bodyBlock func(t int)
	// xb, yb are engine-owned scratch: the pack buffers of a blocked
	// batch, or the gathered column and its product when MulMat runs
	// per vector. Allocated on first use and reused thereafter (the
	// zero-alloc steady state covers them).
	xb, yb []float64 // guarded by mu
}

// Opt returns the optimization configuration the kernel was compiled
// for.
func (p *Prepared) Opt() ex.Optim { return p.opt }

// MemBytes reports the kernel's resident matrix-stream footprint: the
// converted format's storage when one was built, the CSR arrays
// otherwise. It is the figure a memory-budgeted kernel cache accounts
// per entry — the dominant allocation eviction recovers (schedule
// partitions, reduction buffers and pack scratch are O(rows) and
// O(threads), negligible next to the element arrays).
func (p *Prepared) MemBytes() int64 { return p.matrixBytes }

// Threads returns the execution width chosen at preparation time.
func (p *Prepared) Threads() int { return p.nt }

// Kernel names the compiled inner kernel, e.g. "delta-vec8-avx512"
// or "csr-vec8-avx512".
func (p *Prepared) Kernel() string { return p.kernelName }

// ReduceCells reports the partial cells the post-barrier fold adds
// into y per vector: the SSS conflict windows (formats.SymWindows); 0
// for kernels that write y directly.
func (p *Prepared) ReduceCells() int {
	if p.red == nil {
		return 0
	}
	return p.red.cells()
}

// MulVec computes y = A*x. Safe for concurrent use; allocation-free in
// steady state.
//
//spmv:hotpath
func (p *Prepared) MulVec(x, y []float64) {
	if matrix.Aliased(x, y) {
		panic("native: Prepared.MulVec input and output must not alias")
	}
	p.mu.Lock()
	p.mulVecLocked(x, y, nil)
	p.mu.Unlock()
}

// MulVecBatch computes ys[i] = A*xs[i] for every pair, holding the
// workers hot across the whole batch — the multi-user serving shape
// where one matrix multiplies many vectors back to back. Only the CSR
// float64 binding blocks: it packs groups of 8 vectors, then one group
// of 4 when at least 4 remain, into the interleaved layout and streams
// the matrix once per group through the register-blocked body. Every
// other vector, and every vector of every other binding, runs the
// binding's own MulVec body; no other blocked body beats it on the
// measured host (docs/guide/batching.md). Steady-state calls with a
// stable batch shape are allocation-free. No input vector may overlap
// ANY output vector (earlier groups' outputs are written before later
// groups' inputs are packed); the engine rejects such batches.
func (p *Prepared) MulVecBatch(xs, ys [][]float64) {
	if matrix.AnyAliased(xs, ys) {
		panic("native: Prepared.MulVecBatch inputs and outputs must not alias")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	i := 0
	if p.bodyBlock != nil {
		for _, k := range [...]int{8, 4} {
			for ; len(xs)-i >= k; i += k {
				p.xb = matrix.PackBlock(p.xb, xs[i:i+k])
				p.yb = grow(p.yb, p.m.NRows*k)
				p.mulBlockLocked(p.xb, p.yb, k)
				matrix.UnpackBlock(ys[i:i+k], p.yb)
			}
		}
	}
	for ; i < len(xs); i++ {
		p.mulVecLocked(xs[i], ys[i], nil)
	}
}

// MulMat computes Y = A*X for k right-hand sides stored in the
// interleaved block layout (X[j*k+l] is element j of vector l; see
// matrix.PackBlock). The CSR float64 binding at k = 4 or 8 streams the
// matrix once for the whole block; everywhere else each column is
// gathered into scratch, multiplied by the MulVec body and scattered
// back, so the result equals k MulVec calls bit for bit. Safe for
// concurrent use; allocation-free in steady state for any k. x and y
// must not alias.
//
//spmv:hotpath
func (p *Prepared) MulMat(x, y []float64, k int) {
	if k < 1 {
		panic("native: MulMat block width < 1")
	}
	if len(x) != p.m.NCols*k || len(y) != p.m.NRows*k {
		panic("native: MulMat dimension mismatch")
	}
	if matrix.Aliased(x, y) {
		panic("native: MulMat input and output must not alias")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if k == 1 {
		p.mulVecLocked(x, y, nil)
		return
	}
	if p.bodyBlock != nil && (k == 4 || k == 8) {
		p.mulBlockLocked(x, y, k)
		return
	}
	p.xb, p.yb = grow(p.xb, p.m.NCols), grow(p.yb, p.m.NRows)
	for l := 0; l < k; l++ {
		for j := range p.xb {
			p.xb[j] = x[j*k+l]
		}
		p.mulVecLocked(p.xb, p.yb, nil)
		for i, v := range p.yb {
			y[i*k+l] = v
		}
	}
}

// grow returns buf resized to n, reallocating only when its capacity
// falls short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// mulVecTimed is the measurement entry point: perThread, when non-nil,
// receives each slot's busy seconds.
func (p *Prepared) mulVecTimed(x, y []float64, perThread []float64) {
	p.mu.Lock()
	p.mulVecLocked(x, y, perThread)
	p.mu.Unlock()
}

// mulVecLocked publishes the operands and dispatches one barrier.
//
//spmv:hotpath
//spmv:locked
func (p *Prepared) mulVecLocked(x, y, perThread []float64) {
	p.x, p.y, p.timing = x, y, perThread
	p.next.Store(0)
	p.pool.Run(p.nt, p.body)
	if p.finish != nil {
		p.finish()
	}
	p.x, p.y, p.timing = nil, nil, nil
}

// mulBlockLocked dispatches one register-blocked multiply of k ∈ {4, 8}
// interleaved right-hand sides as a single pool barrier.
//
//spmv:hotpath
//spmv:locked
func (p *Prepared) mulBlockLocked(x, y []float64, k int) {
	p.x, p.y, p.bk = x, y, k
	p.next.Store(0)
	p.pool.Run(p.nt, p.bodyBlock)
	p.x, p.y, p.bk = nil, nil, 0
}

// wrap adds the optional per-thread timing shell around a slot body.
func (p *Prepared) wrap(work func(t int)) func(t int) {
	return func(t int) {
		if p.timing == nil {
			work(t)
			return
		}
		begin := time.Now()
		work(t)
		p.timing[t] = time.Since(begin).Seconds()
	}
}

// buildPrepared compiles a configuration into a Prepared kernel bound
// to the executor's worker pool. A nonzero probe, which only Run
// passes, ignores o and binds that bound probe over the baseline CSR
// under the default schedule. Each format picks its own partition and
// binds its range kernels through slots or bindSym.
// It compiles o's canonical form on the executor's model, which Opt
// reports; on the host that form never selects Split, and a Split knob
// set under any other model runs the CSR default below. Under f32 a
// format binds the float32 instance of its pure-Go body on its
// f32Form, which shares the f64 conversion's structure and so its
// partition; precision picks only the value array, the kernel name and
// the footprint. A matrix whose values do not fit float32 runs its f64
// binding under an f32 configuration, and Opt reports PrecF64.
func (e *Executor) buildPrepared(m *matrix.CSR, o ex.Optim, nt int, probe ex.Probe) *Prepared {
	if probe != 0 {
		o = ex.Optim{}
	}
	o = o.Canonical(e.model)
	if o.EffectivePrecision() == ex.PrecF32 && !formats.FitsF32(m.Val) {
		o.Precision = ex.PrecF64
	}
	p := &Prepared{m: m, opt: o, nt: nt, pool: e.workers, matrixBytes: m.Bytes()}
	f32 := o.EffectivePrecision() == ex.PrecF32
	switch o.Format {
	case ex.FormatSSS:
		s := e.SSSOf(m)
		parts := sched.Prepare(o.Schedule, s.Lower, nt).Parts
		if f32 {
			f := memoized(e, m, ex.FormatSSS, ex.PrecF32, func(*matrix.CSR) *f32Form[*formats.SSS] { return narrowSSS(s) })
			p.kernelName, p.matrixBytes = "prec-sss-f32", f.bytes
			bindSSS(p, f.s, &f.val, parts)
			break
		}
		p.kernelName, p.matrixBytes = "sss", s.Bytes()
		bindSSS(p, s, &s.Lower.Val, parts)
	case ex.FormatSellCS:
		// Threads own chunks, not rows: statically balanced by padded
		// element count (the work the kernel streams) from the ChunkPtr
		// prefix sums, or served from the cursor under dynamic and
		// guided schedules. Each chunk owns a disjoint set of original
		// rows, so the permuted scatter into y needs no synchronization.
		s := e.SellCSOf(m)
		var parts, chunks []sched.Range
		if r := sched.Resolve(o.Schedule, m, nt); r == sched.Dynamic || r == sched.Guided {
			chunks = sched.Chunks(r, s.NChunks(), nt, 0)
		} else {
			parts = sched.PartitionPrefix(s.ChunkPtr, s.NChunks(), nt)
		}
		if f32 {
			f := memoized(e, m, ex.FormatSellCS, ex.PrecF32, func(*matrix.CSR) *f32Form[*formats.SellCS] { return narrowSellCS(s) })
			p.kernelName, p.matrixBytes = "prec-sellcs-f32", f.bytes
			p.body = p.slots(parts, chunks, func(lo, hi int) { formats.SellCSChunks(f.s, &f.val, p.x, p.y, lo, hi) })
			break
		}
		kern, name := kernels.SellCSVariant(s)
		p.kernelName, p.matrixBytes = name, s.Bytes()
		p.body = p.slots(parts, chunks, func(lo, hi int) { kern(s, p.x, p.y, lo, hi) })
	case ex.FormatDelta:
		// Static partitions under every schedule: each range starts
		// at its precomputed overflow offset. Every Delta plan binds
		// the dispatched vector decoder (Canonical sets Vectorize).
		d := memoized(e, m, ex.FormatDelta, ex.PrecF64, formats.Compress)
		offs := d.OverflowOffsets()
		kern := kernels.DeltaVariant()
		p.kernelName, p.matrixBytes = kernels.DeltaVariantName(), d.Bytes()
		p.body = p.slots(sched.Prepare(o.Schedule, m, nt).Parts, nil,
			func(lo, hi int) { kern(d, p.x, p.y, lo, hi, offs[lo]) })
	default:
		sp := sched.Prepare(o.Schedule, m, nt)
		if f32 {
			f := memoized(e, m, ex.FormatCSR, ex.PrecF32, narrowCSR)
			kern, name := kernels.CSRRows[float32], "prec-csr-f32"
			if o.Vectorize {
				kern, name = kernels.CSRVector8Rows[float32], "prec-csr-vec8-f32"
			}
			p.kernelName, p.matrixBytes = name, f.bytes
			p.body = p.slots(sp.Parts, sp.Chunks, func(lo, hi int) { kern(f.s, &f.val, p.x, p.y, lo, hi) })
			break
		}
		// The one blocked binding: register blocking across right-hand
		// sides is the gather kernel's optimization for blocks. The
		// bound probes do not compute SpMV and have no blocked form.
		kern := kernels.Variant(o.Vectorize)
		p.kernelName = kernels.VariantName(o.Vectorize)
		switch probe {
		case ex.ProbeML:
			kern, p.kernelName = kernels.RegularizedRange, "regularized"
		case ex.ProbeCMP:
			kern, p.kernelName = kernels.UnitStrideRange, "unit-stride"
		default:
			p.bodyBlock = p.slots(sp.Parts, sp.Chunks, func(lo, hi int) { kernels.CSRBlockRange(m, p.x, p.y, p.bk, lo, hi) })
		}
		p.body = p.slots(sp.Parts, sp.Chunks, func(lo, hi int) { kern(m, p.x, p.y, lo, hi) })
	}
	return p
}

// f32Form is a format's float32 instance: its f64 conversion's
// structure, plus the narrowed values and the footprint of what it
// keeps. The SELL-C-σ and SSS forms drop the conversion's f64 value
// array, so a prepared f32 kernel never keeps it reachable.
type f32Form[S any] struct {
	s     S
	val   []float32
	bytes int64
}

// narrowCSR is the f32 form of m. Its structure is m itself, which the
// Prepared and the conversion memo hold anyway.
func narrowCSR(m *matrix.CSR) *f32Form[*matrix.CSR] {
	return &f32Form[*matrix.CSR]{m, formats.NarrowF32(m.Val), m.Bytes() - 4*int64(m.NNZ())}
}

// narrowSellCS is the f32 form of a SELL-C-σ conversion. Its kernel
// reads neither Width nor InvPerm, so the form drops them too.
func narrowSellCS(s *formats.SellCS) *f32Form[*formats.SellCS] {
	st := *s
	st.Vals, st.Width, st.InvPerm = nil, nil, nil
	return &f32Form[*formats.SellCS]{&st, formats.NarrowF32(s.Vals),
		s.Bytes() - 4*int64(len(s.Vals)+len(s.Width)+len(s.InvPerm))}
}

// narrowSSS is the f32 form of a symmetric conversion: the lower
// triangle narrows, the diagonal stays f64.
func narrowSSS(s *formats.SSS) *f32Form[*formats.SSS] {
	lower := *s.Lower
	lower.Val = nil
	st := *s
	st.Lower, st.HasDiag = &lower, nil
	return &f32Form[*formats.SSS]{&st, formats.NarrowF32(s.Lower.Val), s.Bytes() - 4*int64(s.Lower.NNZ())}
}

// bindSSS binds the symmetric body's value-type instance over the
// lower triangle of s, whose values *val holds.
func bindSSS[V formats.Value](p *Prepared, s *formats.SSS, val *[]V, parts []sched.Range) {
	p.bindSym(s.Lower, parts, func(window []float64, base, lo, hi int) {
		kernels.SSSRows(s, val, p.x, p.y, window, base, lo, hi)
	})
}

// slots builds the slot body that runs run over a partition: with
// chunks nil slot t runs parts[t]; otherwise the slots drain chunks
// through the shared cursor (the dynamic and guided schedules).
func (p *Prepared) slots(parts, chunks []sched.Range, run func(lo, hi int)) func(t int) {
	if chunks == nil {
		return p.wrap(func(t int) { run(parts[t].Lo, parts[t].Hi) })
	}
	return p.wrap(func(int) {
		for {
			idx := int(p.next.Add(1)) - 1
			if idx >= len(chunks) {
				return
			}
			run(chunks[idx].Lo, chunks[idx].Hi)
		}
	})
}

// bindSym compiles a symmetric-storage kernel over the lower triangle
// lower: threads own the nnz-balanced row ranges parts, write their
// own rows' results straight into y, and add a mirrored transpose
// contribution into y too when its row is their own. A contribution
// to a row below the slot's range lands in the slot's conflict window
// (formats.SymWindows), and finish folds the windows into y serially
// after the single barrier. A banded matrix's windows span one
// bandwidth each, so the scratch and the fold are Σ(lo-base) cells,
// not nt·n. parts is the static partition under
// every schedule: a dynamic cursor would leave a thread's rows, and so
// its window, unknown until run time.
func (p *Prepared) bindSym(lower *matrix.CSR, parts []sched.Range, body func(window []float64, base, lo, hi int)) {
	win := formats.SymWindows(lower, parts)
	red := newReducer(win)
	p.red = red
	p.body = p.wrap(func(t int) {
		w := red.slot(t)
		clear(w)
		body(w, win[t].Lo, parts[t].Lo, parts[t].Hi)
	})
	p.finish = func() { red.reduce(p.y) }
}
