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
// pair: the converted format (DeltaCSR/SplitCSR), the resolved schedule
// partitions, the phase-2 partial buffer and the chosen kernel function
// are all materialized at construction, so a steady-state MulVec does
// no planning work and zero heap allocations — it wakes the persistent
// workers, runs the kernel, and returns. This is the object the facade's
// Tuned wraps and the foundation of the repeated-multiply serving path.
type Prepared struct {
	m          *matrix.CSR
	opt        ex.Optim
	nt         int
	kernelName string
	pool       *Pool // nil: transient fork/join execution (MulVecOnce)
	// matrixBytes is the matrix stream the compiled kernel actually
	// reads per multiply: the converted format's footprint when one
	// was built (SSS ≈ half the mirrored CSR, Delta's compressed
	// index stream, SELL's padded arrays), the CSR arrays otherwise
	// (Split stores the same elements as CSR, so the default holds).
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
	// Fig 6 phase-2 reduction).
	body   func(t int)
	finish func()

	// Blocked multi-RHS (SpMM) state. bodyBlock computes slot t's share
	// of one blocked multiply, reading x/y as an interleaved block of bk
	// vectors; finishBlock is its post-barrier reduction. blockW is the
	// width MulVecBatch repartitions batches into; ensureBlock, when
	// non-nil, grows width-dependent scratch (the split partials) before
	// a dispatch wider than seen so far.
	bk          int
	blockW      int
	bodyBlock   func(t int)
	finishBlock func()
	ensureBlock func(k int)
	// xb, yb are the engine-owned pack buffers of the batch path,
	// allocated on first blocked batch and reused thereafter (the
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

// Kernel names the compiled inner kernel, e.g. "delta" or
// "split+csr-vec8-avx512".
func (p *Prepared) Kernel() string { return p.kernelName }

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
// where one matrix multiplies many vectors back to back. The batch is
// repartitioned once into blocks of up to blockW vectors; each block
// is packed into the interleaved layout and dispatched as ONE pool
// barrier that streams the matrix a single time for the whole block
// (per-vector matrix traffic drops by 1/k), with a generic-k kernel
// covering the tail block. Steady-state calls with a stable batch
// shape are allocation-free. No input vector may overlap ANY output
// vector (earlier blocks' outputs are written before later blocks'
// inputs are packed); the engine rejects such batches.
func (p *Prepared) MulVecBatch(xs, ys [][]float64) {
	if matrix.AnyAliased(xs, ys) {
		panic("native: Prepared.MulVecBatch inputs and outputs must not alias")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.blockW
	if w < 2 || p.bodyBlock == nil {
		for i := range xs {
			p.mulVecLocked(xs[i], ys[i], nil)
		}
		return
	}
	for i := 0; i < len(xs); {
		k := len(xs) - i
		if k > w {
			k = w
		}
		if k == 1 {
			p.mulVecLocked(xs[i], ys[i], nil)
			i++
			continue
		}
		p.xb = matrix.PackBlock(p.xb, xs[i:i+k])
		if need := p.m.NRows * k; cap(p.yb) < need {
			p.yb = make([]float64, need)
		} else {
			p.yb = p.yb[:need]
		}
		p.mulMatLocked(p.xb, p.yb, k, nil)
		matrix.UnpackBlock(ys[i:i+k], p.yb)
		i += k
	}
}

// MulMat computes Y = A*X for k right-hand sides stored in the
// interleaved block layout (X[j*k+l] is element j of vector l; see
// matrix.PackBlock), streaming the matrix once for the whole block.
// Safe for concurrent use; allocation-free in steady state for any k
// up to the largest seen. x and y must not alias.
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
	p.mulMatLocked(x, y, k, nil)
	p.mu.Unlock()
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
	p.runPhase(p.body)
	if p.finish != nil {
		p.finish()
	}
	p.x, p.y, p.timing = nil, nil, nil
}

// runPhase dispatches one barrier of the kernel — through the
// persistent pool when bound, transient goroutines otherwise. Multi-
// phase kernels (the SSS reduction) dispatch it again from finish.
//
//spmv:hotpath
func (p *Prepared) runPhase(body func(t int)) {
	if p.pool != nil {
		p.pool.Run(p.nt, body)
	} else {
		spawnRun(p.nt, body)
	}
}

// mulMatTimed is the blocked measurement entry point (native Run with
// a BlockWidth configuration).
func (p *Prepared) mulMatTimed(x, y []float64, k int, perThread []float64) {
	p.mu.Lock()
	p.mulMatLocked(x, y, k, perThread)
	p.mu.Unlock()
}

// mulMatLocked dispatches one blocked multiply of k interleaved
// right-hand sides as a single pool barrier.
//
//spmv:hotpath
//spmv:locked
func (p *Prepared) mulMatLocked(x, y []float64, k int, perThread []float64) {
	if k == 1 {
		p.mulVecLocked(x, y, perThread)
		return
	}
	if p.bodyBlock == nil {
		panic("native: bound kernels have no blocked form")
	}
	if p.ensureBlock != nil {
		p.ensureBlock(k)
	}
	p.x, p.y, p.timing, p.bk = x, y, perThread, k
	p.next.Store(0)
	p.runPhase(p.bodyBlock)
	if p.finishBlock != nil {
		p.finishBlock()
	}
	p.x, p.y, p.timing, p.bk = nil, nil, nil, 0
}

// wrap adds the optional per-thread timing shell around a slot body.
// Timing accumulates (+=) rather than assigns so multi-phase kernels —
// the SSS compute + reduce barriers — report each slot's total busy
// time; callers hand in a zeroed slice per measured operation.
func (p *Prepared) wrap(work func(t int)) func(t int) {
	return func(t int) {
		if p.timing == nil {
			work(t)
			return
		}
		begin := time.Now()
		work(t)
		p.timing[t] += time.Since(begin).Seconds()
	}
}

// buildPrepared compiles a configuration into a Prepared kernel bound
// to the executor's worker pool. It accepts bound kernels (Run measures
// them); the public Prepare rejects them.
func (e *Executor) buildPrepared(m *matrix.CSR, o ex.Optim, nt int) *Prepared {
	p := &Prepared{m: m, opt: o, nt: nt, pool: e.workers, blockW: o.EffectiveBlockWidth(),
		matrixBytes: m.Bytes()}
	switch {
	case o.RegularizeX:
		p.bindRange(m, kernels.RegularizedRange, "regularized", o.Schedule)
	case o.UnitStride:
		p.bindRange(m, kernels.UnitStrideRange, "unit-stride", o.Schedule)
	default:
		prec := o.EffectivePrecision()
		switch o.EffectiveFormat() {
		case ex.FormatSSS:
			if prec != ex.PrecF64 {
				s := e.sssOf(m)
				ps := e.precSSSOf(m, prec)
				p.matrixBytes = ps.Bytes()
				p.bindPrecSSS(ps, s, o)
				break
			}
			s := e.sssOf(m)
			p.matrixBytes = s.Bytes()
			p.bindSSS(s, o)
		case ex.FormatSplit:
			p.bindSplit(e.splitOf(m), o)
		case ex.FormatSellCS:
			if prec != ex.PrecF64 {
				ps := e.precSellOf(m, prec)
				p.matrixBytes = ps.Bytes()
				p.bindPrecSellCS(ps, o)
				break
			}
			s := e.sellOf(m)
			p.matrixBytes = s.Bytes()
			p.bindSellCS(s, o)
		case ex.FormatDelta:
			d := e.deltaOf(m)
			p.matrixBytes = d.Bytes()
			p.bindDelta(d, m, o.Schedule)
		default:
			if prec != ex.PrecF64 {
				pc := e.precCSROf(m, prec)
				p.matrixBytes = pc.Bytes()
				p.bindPrecCSR(pc, m, o)
				break
			}
			p.bindRange(m, kernels.Variant(o.Vectorize, o.Prefetch, o.Unroll),
				kernels.VariantName(o.Vectorize, o.Prefetch, o.Unroll), o.Schedule)
		}
	}
	return p
}

// bindRange compiles a RangeKernel under the resolved schedule. The
// blocked body always runs the register-blocked CSR SpMM kernel: the
// scalar variants (prefetch, unroll, the 8-accumulator vector
// stand-in) exist to optimize the one-vector loop, and register
// blocking across right-hand sides IS that optimization for blocks.
// The bound probe kernels (RegularizeX/UnitStride) do not compute SpMV
// and have no blocked form; bodyBlock stays nil for them, so batch
// calls fall back to the per-vector probe and MulMat rejects them.
func (p *Prepared) bindRange(m *matrix.CSR, k kernels.RangeKernel, name string, policy sched.Policy) {
	p.kernelName = name
	blocked := !p.opt.IsBoundKernel()
	sp := sched.Prepare(policy, m, p.nt)
	if sp.Chunks != nil {
		chunks := sp.Chunks
		p.body = p.wrap(func(t int) {
			for {
				idx := int(p.next.Add(1)) - 1
				if idx >= len(chunks) {
					break
				}
				c := chunks[idx]
				k(m, p.x, p.y, c.Lo, c.Hi)
			}
		})
		if blocked {
			p.bodyBlock = p.wrap(func(t int) {
				for {
					idx := int(p.next.Add(1)) - 1
					if idx >= len(chunks) {
						break
					}
					c := chunks[idx]
					kernels.CSRBlockRange(m, p.x, p.y, p.bk, c.Lo, c.Hi)
				}
			})
		}
		return
	}
	parts := sp.Parts
	p.body = p.wrap(func(t int) {
		r := parts[t]
		k(m, p.x, p.y, r.Lo, r.Hi)
	})
	if blocked {
		p.bodyBlock = p.wrap(func(t int) {
			r := parts[t]
			kernels.CSRBlockRange(m, p.x, p.y, p.bk, r.Lo, r.Hi)
		})
	}
}

// bindSplit compiles the two-phase SplitCSR kernel (Fig 6): phase 1
// over the base rows, phase-2 partials per thread, and the reduction as
// the post-barrier finish step. The partial buffers live in the shared
// reduction engine, one cell per extracted long row, folded into y
// through the LongRowIdx scatter table; the few cells make the serial
// fold cheaper than a second barrier.
func (p *Prepared) bindSplit(s *formats.SplitCSR, o ex.Optim) {
	inner := kernels.Variant(o.Vectorize, o.Prefetch, o.Unroll)
	p.kernelName = "split+" + kernels.VariantName(o.Vectorize, o.Prefetch, o.Unroll)
	parts := sched.Prepare(o.Schedule, s.Base, p.nt).Parts
	red := newReducer(p.nt, s.NumLongRows(), p.blockW, s.LongRowIdx)
	nt := p.nt
	p.body = p.wrap(func(t int) {
		r := parts[t]
		inner(s.Base, p.x, p.y, r.Lo, r.Hi)
		kernels.SplitPhase2Partial(s, p.x, red.slot(t), t, nt)
	})
	p.finish = func() { red.reduce(p.y) }
	p.ensureBlock = red.ensureBlock
	p.bodyBlock = p.wrap(func(t int) {
		r := parts[t]
		kernels.CSRBlockRange(s.Base, p.x, p.y, p.bk, r.Lo, r.Hi)
		kernels.SplitPhase2PartialBlock(s, p.x, red.slotBlock(t, p.bk), p.bk, t, nt)
	})
	p.finishBlock = func() { red.reduceBlock(p.y, p.bk) }
}

// bindSSS compiles the symmetric kernel: threads own nnz-balanced row
// ranges of the lower triangle, write their own rows' results straight
// into y, and accumulate the mirrored transpose contributions in their
// reduction-engine slots (full y-length cell arrays). The post-barrier
// finish is a second parallel dispatch folding disjoint row ranges of
// all slots into y — with cells = rows, a serial fold would cost
// O(nt·n) on the dispatching goroutine. Schedules resolve to the
// static nnz-balanced partition: a dynamic cursor would make each
// thread's scatter region unbounded, forcing full-buffer zeroing per
// multiply instead of the [0, part.Hi) prefix the static partition
// guarantees.
func (p *Prepared) bindSSS(s *formats.SSS, o ex.Optim) {
	p.kernelName = "sss"
	parts := sched.Prepare(o.Schedule, s.Lower, p.nt).Parts
	rparts := sched.PartitionRows(s.N, p.nt)
	red := newReducer(p.nt, s.N, p.blockW, nil)
	p.body = p.wrap(func(t int) {
		r := parts[t]
		slot := red.slot(t)
		clear(slot[:r.Hi])
		kernels.SSSRange(s, p.x, p.y, slot, r.Lo, r.Hi)
	})
	reduce := p.wrap(func(t int) {
		r := rparts[t]
		red.reduceRange(p.y, r.Lo, r.Hi)
	})
	p.finish = func() { p.runPhase(reduce) }
	p.ensureBlock = red.ensureBlock
	p.bodyBlock = p.wrap(func(t int) {
		r := parts[t]
		slot := red.slotBlock(t, p.bk)
		clear(slot[:r.Hi*p.bk])
		kernels.SSSBlockRange(s, p.x, p.y, slot, p.bk, r.Lo, r.Hi)
	})
	reduceBlock := p.wrap(func(t int) {
		r := rparts[t]
		red.reduceRangeBlock(p.y, p.bk, r.Lo, r.Hi)
	})
	p.finishBlock = func() { p.runPhase(reduceBlock) }
}

// bindSellCS compiles the SELL-C-σ chunked kernel: threads are
// partitioned over chunks (not rows), balanced by padded element count
// — the work the kernel actually streams — using the ChunkPtr prefix
// sums. Every chunk owns a disjoint set of original rows, so the
// permuted scatter into y needs no synchronization and no scratch
// vector. Dynamic and guided schedules serve chunk ranges from the
// shared cursor instead.
func (p *Prepared) bindSellCS(s *formats.SellCS, o ex.Optim) {
	kern, name := kernels.SellCSVariant(s, o.Vectorize)
	p.kernelName = name
	if r := sched.Resolve(o.Schedule, p.m); r == sched.Dynamic || r == sched.Guided {
		chunks := sched.Chunks(r, s.NChunks(), p.nt, 0)
		p.body = p.wrap(func(t int) {
			for {
				idx := int(p.next.Add(1)) - 1
				if idx >= len(chunks) {
					break
				}
				c := chunks[idx]
				kern(s, p.x, p.y, c.Lo, c.Hi)
			}
		})
		p.bodyBlock = p.wrap(func(t int) {
			for {
				idx := int(p.next.Add(1)) - 1
				if idx >= len(chunks) {
					break
				}
				c := chunks[idx]
				kernels.SellCSBlockRange(s, p.x, p.y, p.bk, c.Lo, c.Hi)
			}
		})
		return
	}
	parts := sellChunkParts(s, p.nt)
	p.body = p.wrap(func(t int) {
		r := parts[t]
		kern(s, p.x, p.y, r.Lo, r.Hi)
	})
	p.bodyBlock = p.wrap(func(t int) {
		r := parts[t]
		kernels.SellCSBlockRange(s, p.x, p.y, p.bk, r.Lo, r.Hi)
	})
}

// sellChunkParts splits the chunk list into nt contiguous ranges of
// approximately equal padded element count (ChunkPtr is the prefix-sum
// weight array).
func sellChunkParts(s *formats.SellCS, nt int) []sched.Range {
	return sched.PartitionPrefix(s.ChunkPtr, s.NChunks(), nt)
}

// bindPrecCSR compiles the precision-reduced CSR kernel under the
// resolved schedule — the narrowed-value-stream twin of bindRange. m is
// the source matrix: the schedule partitions by its nnz weights, which
// the reduced form shares exactly (structure arrays are aliased).
func (p *Prepared) bindPrecCSR(pc *formats.PrecCSR, m *matrix.CSR, o ex.Optim) {
	kern, name := kernels.PrecVariant(o.Vectorize)
	p.kernelName = name + "-" + o.EffectivePrecision().String()
	sp := sched.Prepare(o.Schedule, m, p.nt)
	if sp.Chunks != nil {
		chunks := sp.Chunks
		p.body = p.wrap(func(t int) {
			for {
				idx := int(p.next.Add(1)) - 1
				if idx >= len(chunks) {
					break
				}
				c := chunks[idx]
				kern(pc, p.x, p.y, c.Lo, c.Hi)
			}
		})
		p.bodyBlock = p.wrap(func(t int) {
			for {
				idx := int(p.next.Add(1)) - 1
				if idx >= len(chunks) {
					break
				}
				c := chunks[idx]
				kernels.PrecCSRBlockRange(pc, p.x, p.y, p.bk, c.Lo, c.Hi)
			}
		})
		return
	}
	parts := sp.Parts
	p.body = p.wrap(func(t int) {
		r := parts[t]
		kern(pc, p.x, p.y, r.Lo, r.Hi)
	})
	p.bodyBlock = p.wrap(func(t int) {
		r := parts[t]
		kernels.PrecCSRBlockRange(pc, p.x, p.y, p.bk, r.Lo, r.Hi)
	})
}

// bindPrecSellCS compiles the precision-reduced SELL-C-σ kernel:
// identical chunk ownership and partitioning to bindSellCS (the
// geometry arrays are shared), with corrections folded in-row, so the
// permuted scatter stays synchronization-free.
func (p *Prepared) bindPrecSellCS(ps *formats.PrecSellCS, o ex.Optim) {
	p.kernelName = "prec-sellcs-" + o.EffectivePrecision().String()
	if r := sched.Resolve(o.Schedule, p.m); r == sched.Dynamic || r == sched.Guided {
		chunks := sched.Chunks(r, ps.NChunks(), p.nt, 0)
		p.body = p.wrap(func(t int) {
			for {
				idx := int(p.next.Add(1)) - 1
				if idx >= len(chunks) {
					break
				}
				c := chunks[idx]
				kernels.PrecSellCSRange(ps, p.x, p.y, c.Lo, c.Hi)
			}
		})
		p.bodyBlock = p.wrap(func(t int) {
			for {
				idx := int(p.next.Add(1)) - 1
				if idx >= len(chunks) {
					break
				}
				c := chunks[idx]
				kernels.PrecSellCSBlockRange(ps, p.x, p.y, p.bk, c.Lo, c.Hi)
			}
		})
		return
	}
	parts := sched.PartitionPrefix(ps.ChunkPtr, ps.NChunks(), p.nt)
	p.body = p.wrap(func(t int) {
		r := parts[t]
		kernels.PrecSellCSRange(ps, p.x, p.y, r.Lo, r.Hi)
	})
	p.bodyBlock = p.wrap(func(t int) {
		r := parts[t]
		kernels.PrecSellCSBlockRange(ps, p.x, p.y, p.bk, r.Lo, r.Hi)
	})
}

// bindPrecSSS compiles the precision-reduced symmetric kernel with the
// same two-phase reduction as bindSSS; s is the f64 conversion the
// reduced form was derived from, used only to partition the lower
// triangle by nnz (the structure is shared). Corrections ride the same
// scatter slots as stored elements, so the reduction geometry is
// unchanged.
func (p *Prepared) bindPrecSSS(ps *formats.PrecSSS, s *formats.SSS, o ex.Optim) {
	p.kernelName = "prec-sss-" + o.EffectivePrecision().String()
	parts := sched.Prepare(o.Schedule, s.Lower, p.nt).Parts
	rparts := sched.PartitionRows(ps.N, p.nt)
	red := newReducer(p.nt, ps.N, p.blockW, nil)
	p.body = p.wrap(func(t int) {
		r := parts[t]
		slot := red.slot(t)
		clear(slot[:r.Hi])
		kernels.PrecSSSRange(ps, p.x, p.y, slot, r.Lo, r.Hi)
	})
	reduce := p.wrap(func(t int) {
		r := rparts[t]
		red.reduceRange(p.y, r.Lo, r.Hi)
	})
	p.finish = func() { p.runPhase(reduce) }
	p.ensureBlock = red.ensureBlock
	p.bodyBlock = p.wrap(func(t int) {
		r := parts[t]
		slot := red.slotBlock(t, p.bk)
		clear(slot[:r.Hi*p.bk])
		kernels.PrecSSSBlockRange(ps, p.x, p.y, slot, p.bk, r.Lo, r.Hi)
	})
	reduceBlock := p.wrap(func(t int) {
		r := rparts[t]
		red.reduceRangeBlock(p.y, p.bk, r.Lo, r.Hi)
	})
	p.finishBlock = func() { p.runPhase(reduceBlock) }
}

// bindDelta compiles the DeltaCSR kernel with per-partition overflow
// offsets precomputed.
func (p *Prepared) bindDelta(d *formats.DeltaCSR, m *matrix.CSR, policy sched.Policy) {
	p.kernelName = "delta"
	offs := d.OverflowOffsets()
	parts := sched.Prepare(policy, m, p.nt).Parts
	p.body = p.wrap(func(t int) {
		r := parts[t]
		kernels.DeltaRange(d, p.x, p.y, r.Lo, r.Hi, offs[r.Lo])
	})
	p.bodyBlock = p.wrap(func(t int) {
		r := parts[t]
		kernels.DeltaBlockRange(d, p.x, p.y, p.bk, r.Lo, r.Hi, offs[r.Lo])
	})
}
