package native

import "github.com/sparsekit/spmvtuner/internal/sched"

// The parallel-reduction engine: the post-barrier fold of the SSS and
// precision-reduced SSS kernels (bindSym), whose threads scatter
// mirrored transpose contributions below their own row partition.
// Each thread slot owns a private window covering the rows [base, lo)
// below its slot's range, and after the single barrier the dispatching
// goroutine folds every window into y[base:lo] serially. This type is
// that one implementation, for both the scalar and the blocked (k-RHS
// interleaved) paths.

// reducer owns the per-slot windows and the fold of one prepared
// kernel. Buffers are sized at construction (and grown by ensureBlock
// for wider explicit MulMat calls), so steady-state use allocates
// nothing. Kernels clear their whole window before accumulating into
// it, so no cell carries over between multiplies.
type reducer struct {
	// win[t] is slot t's window: its cells fold into y[win[t].Lo:
	// win[t].Hi].
	win []sched.Range
	// off[t] and off[t+1] bound slot t's cells in buf; at block width
	// k slot t is bufBlock[off[t]*k : off[t+1]*k].
	off []int
	// buf is the scalar cell storage; bufBlock the blocked storage,
	// cell c of a slot at [c*k : c*k+k] within the slot.
	buf, bufBlock []float64
}

// newReducer builds the engine over the given per-slot windows,
// pre-sizing the blocked buffer at blockW so batches at the configured
// width never allocate.
func newReducer(win []sched.Range, blockW int) *reducer {
	off := make([]int, len(win)+1)
	for t, w := range win {
		off[t+1] = off[t] + w.Rows()
	}
	return &reducer{
		win:      win,
		off:      off,
		buf:      make([]float64, off[len(win)]),
		bufBlock: make([]float64, off[len(win)]*blockW),
	}
}

// cells returns the scalar cell count over all slots: the partials
// one vector's fold adds into y.
func (r *reducer) cells() int { return r.off[len(r.win)] }

// slot returns thread t's scalar window.
func (r *reducer) slot(t int) []float64 {
	return r.buf[r.off[t]:r.off[t+1]]
}

// ensureBlock sizes the blocked buffer for width k; the engine invokes
// it before every blocked dispatch (single-goroutine context, before
// the barrier).
func (r *reducer) ensureBlock(k int) {
	if need := r.cells() * k; cap(r.bufBlock) < need {
		r.bufBlock = make([]float64, need)
	} else {
		r.bufBlock = r.bufBlock[:need]
	}
}

// slotBlock returns thread t's window at block width k.
func (r *reducer) slotBlock(t, k int) []float64 {
	return r.bufBlock[r.off[t]*k : r.off[t+1]*k]
}

// reduce folds every slot's window into y, slot by slot.
func (r *reducer) reduce(y []float64) {
	for t, w := range r.win {
		dst := y[w.Lo:w.Hi]
		for c, v := range r.slot(t) {
			dst[c] += v
		}
	}
}

// reduceBlock folds every slot's window of the blocked buffer into the
// interleaved output block y at width k.
func (r *reducer) reduceBlock(y []float64, k int) {
	for t, w := range r.win {
		dst := y[w.Lo*k : w.Hi*k]
		for c, v := range r.slotBlock(t, k) {
			dst[c] += v
		}
	}
}
