package native

// The shared parallel-reduction engine: the phase-2 machinery for
// every kernel whose threads produce contributions outside their own
// row partition. Three bindings use it — SplitCSR, whose threads all
// compute partial dot products of the extracted long rows (Fig 6),
// and SSS and precision-reduced SSS (bindSym), whose threads scatter
// the mirrored transpose contribution into arbitrary earlier rows.
// All reduce the same way: each thread slot owns a private cell
// array, and after the barrier the cells are folded into y, optionally
// through a scatter-index table. This type is that one implementation,
// for both the scalar and the blocked (k-RHS interleaved) paths.

// reducer owns the per-thread partial buffers and the phase-2 fold of
// one prepared kernel. Buffers are sized at construction (and grown by
// ensureBlock for wider explicit MulMat calls), so steady-state use
// allocates nothing.
type reducer struct {
	nt    int
	cells int
	// scatter maps cell c to output row scatter[c]; nil means cell c
	// folds into y[c] directly (the SSS full-vector layout).
	scatter []int32
	// buf is the scalar partial storage: slot t is buf[t*cells : (t+1)*cells].
	buf []float64
	// bufBlock is the blocked storage: slot t at width k is
	// bufBlock[t*cells*k : (t+1)*cells*k], cell c at bufBlock[...][c*k : c*k+k].
	bufBlock []float64
	// blockK is the width bufBlock is currently laid out (and known
	// zero-beyond-the-kernel-written-regions) for; see ensureBlock.
	blockK int
}

// newReducer builds the engine for nt thread slots over the given cell
// count, pre-sizing the blocked buffer at blockW so batches at the
// configured width never allocate. A nil scatter folds cell c into
// y[c].
func newReducer(nt, cells, blockW int, scatter []int32) *reducer {
	return &reducer{
		nt:       nt,
		cells:    cells,
		scatter:  scatter,
		buf:      make([]float64, nt*cells),
		bufBlock: make([]float64, nt*cells*blockW),
		blockK:   blockW,
	}
}

// slot returns thread t's scalar cell array.
func (r *reducer) slot(t int) []float64 {
	return r.buf[t*r.cells : (t+1)*r.cells]
}

// ensureBlock sizes the blocked buffer for width k; the engine invokes
// it before every blocked dispatch (single-goroutine context, before
// the barrier). A width change re-zeroes the buffer: slot offsets are
// k-dependent, so cells a kernel wrote at one width land outside the
// regions kernels clear or overwrite at another — without the reset,
// a reduce pass that trusts untouched cells to be zero (the SSS
// scatter-prefix contract) would fold stale partials from the old
// layout into y. Steady-state dispatches at a stable width skip the
// reset entirely.
func (r *reducer) ensureBlock(k int) {
	need := r.nt * r.cells * k
	if cap(r.bufBlock) < need {
		r.bufBlock = make([]float64, need) // fresh storage is zero
	} else {
		r.bufBlock = r.bufBlock[:need]
		if k != r.blockK {
			clear(r.bufBlock)
		}
	}
	r.blockK = k
}

// slotBlock returns thread t's cell array at block width k.
func (r *reducer) slotBlock(t, k int) []float64 {
	return r.bufBlock[t*r.cells*k : (t+1)*r.cells*k]
}

// reduceRange folds cells [lo, hi) of every slot into y. Split's
// post-barrier finish calls it serially over all cells (few long
// rows); the SSS binding dispatches disjoint ranges to all threads as
// a second barrier (cells = matrix rows, too many to fold serially).
func (r *reducer) reduceRange(y []float64, lo, hi int) {
	for c := lo; c < hi; c++ {
		var sum float64
		for t := 0; t < r.nt; t++ {
			sum += r.buf[t*r.cells+c]
		}
		if r.scatter != nil {
			y[r.scatter[c]] += sum
		} else {
			y[c] += sum
		}
	}
}

// reduce folds every cell into y serially.
func (r *reducer) reduce(y []float64) { r.reduceRange(y, 0, r.cells) }

// reduceRangeBlock folds cells [lo, hi) of every slot into the
// interleaved output block y at width k.
func (r *reducer) reduceRangeBlock(y []float64, k, lo, hi int) {
	stride := r.cells * k
	for c := lo; c < hi; c++ {
		tgt := c
		if r.scatter != nil {
			tgt = int(r.scatter[c])
		}
		yr := y[tgt*k : tgt*k+k]
		for t := 0; t < r.nt; t++ {
			pr := r.bufBlock[t*stride+c*k:][:k]
			for l := range yr {
				yr[l] += pr[l]
			}
		}
	}
}

// reduceBlock folds every cell of the blocked buffer into y serially.
func (r *reducer) reduceBlock(y []float64, k int) { r.reduceRangeBlock(y, k, 0, r.cells) }
