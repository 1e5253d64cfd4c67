package native

import "github.com/sparsekit/spmvtuner/internal/sched"

// The parallel-reduction engine: the post-barrier fold of the SSS and
// precision-reduced SSS kernels (bindSym), whose threads scatter
// mirrored transpose contributions below their own row partition.
// Each thread slot owns a private window covering the rows [base, lo)
// below its slot's range, and after the single barrier the dispatching
// goroutine folds every window into y[base:lo] serially.

// reducer owns the per-slot windows and the fold of one prepared
// kernel. Buffers are sized at construction, so steady-state use
// allocates nothing. Kernels clear their whole window before
// accumulating into it, so no cell carries over between multiplies.
type reducer struct {
	// win[t] is slot t's window: its cells fold into y[win[t].Lo:
	// win[t].Hi].
	win []sched.Range
	// off[t] and off[t+1] bound slot t's cells in buf.
	off []int
	buf []float64
}

// newReducer builds the engine over the given per-slot windows.
func newReducer(win []sched.Range) *reducer {
	off := make([]int, len(win)+1)
	for t, w := range win {
		off[t+1] = off[t] + w.Rows()
	}
	return &reducer{win: win, off: off, buf: make([]float64, off[len(win)])}
}

// cells returns the cell count over all slots: the partials one
// vector's fold adds into y.
func (r *reducer) cells() int { return r.off[len(r.win)] }

// slot returns thread t's window.
func (r *reducer) slot(t int) []float64 {
	return r.buf[r.off[t]:r.off[t+1]]
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
