package matrix

import (
	"fmt"
	"sort"
	"unsafe"
)

// Interleaved block layout for multi-RHS SpMM: a block of k vectors is
// stored as one []float64 of length n*k where element j of vector l
// lives at position j*k+l. One cache line of the block therefore holds
// the same element of k consecutive vectors, so a blocked kernel's
// gather of x[col] serves all k right-hand sides with a single line —
// the layout that lets SpMM stream the matrix once per block instead of
// once per vector.

// Aliased reports whether the element ranges of x and y overlap — the
// same vector passed twice, or two windows of one buffer that share
// elements. It is the single aliasing predicate every multiply guard
// uses: y is written while x is still being gathered, so overlapping
// calls silently compute garbage and are rejected. (Go's GC does not
// move heap objects, so comparing the two ranges' addresses is a
// sound overlap test.)
//
//spmv:hotpath
func Aliased(x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	const sz = unsafe.Sizeof(float64(0))
	x0 := uintptr(unsafe.Pointer(&x[0]))
	y0 := uintptr(unsafe.Pointer(&y[0]))
	return x0 < y0+uintptr(len(y))*sz && y0 < x0+uintptr(len(x))*sz
}

// AnyAliased reports whether any input vector in xs overlaps any
// output vector in ys — the blanket batch aliasing rule: an earlier
// block's outputs are written before a later block's inputs are read,
// so ANY shared input/output storage corrupts results. Small batches
// use the direct pairwise scan (no allocation on the hot serving
// path); large ones sort the address ranges once and sweep, O(n log n).
func AnyAliased(xs, ys [][]float64) bool {
	const directLimit = 64
	if len(xs) <= directLimit && len(ys) <= directLimit {
		for _, y := range ys {
			for _, x := range xs {
				if Aliased(x, y) {
					return true
				}
			}
		}
		return false
	}
	type span struct {
		base, end uintptr
		out       bool
	}
	const sz = unsafe.Sizeof(float64(0))
	spans := make([]span, 0, len(xs)+len(ys))
	for _, x := range xs {
		if len(x) > 0 {
			b := uintptr(unsafe.Pointer(&x[0]))
			spans = append(spans, span{b, b + uintptr(len(x))*sz, false})
		}
	}
	for _, y := range ys {
		if len(y) > 0 {
			b := uintptr(unsafe.Pointer(&y[0]))
			spans = append(spans, span{b, b + uintptr(len(y))*sz, true})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].base < spans[j].base })
	var maxEndIn, maxEndOut uintptr
	for _, s := range spans {
		if s.out {
			if s.base < maxEndIn {
				return true
			}
			if s.end > maxEndOut {
				maxEndOut = s.end
			}
		} else {
			if s.base < maxEndOut {
				return true
			}
			if s.end > maxEndIn {
				maxEndIn = s.end
			}
		}
	}
	return false
}

// PackBlock interleaves the vectors xs into the block layout. dst is
// reused when it has the capacity (and reallocated otherwise), so
// steady-state packing with a stable block shape allocates nothing;
// the packed block (length len(xs[0])*len(xs)) is returned. All
// vectors must share one length.
func PackBlock(dst []float64, xs [][]float64) []float64 {
	k := len(xs)
	if k == 0 {
		return dst[:0]
	}
	n := len(xs[0])
	for l, x := range xs {
		if len(x) != n {
			panic(fmt.Sprintf("matrix: PackBlock vector %d has length %d, want %d", l, len(x), n))
		}
	}
	if cap(dst) < n*k {
		dst = make([]float64, n*k)
	}
	dst = dst[:n*k]
	// Element-major order: the destination is written sequentially and
	// the k sources are each read sequentially (k parallel streams);
	// the vector-major order would store with a k*8-byte stride,
	// touching a fresh cache line per write.
	for j := 0; j < n; j++ {
		dr := dst[j*k : j*k+k]
		for l, x := range xs {
			dr[l] = x[j]
		}
	}
	return dst
}

// UnpackBlock scatters the interleaved block src back into the vectors
// ys: ys[l][j] = src[j*k+l]. It is the inverse of PackBlock.
func UnpackBlock(ys [][]float64, src []float64) {
	k := len(ys)
	if k == 0 {
		return
	}
	n := len(ys[0])
	if len(src) != n*k {
		panic(fmt.Sprintf("matrix: UnpackBlock src length %d, want %d", len(src), n*k))
	}
	for l, y := range ys {
		if len(y) != n {
			panic(fmt.Sprintf("matrix: UnpackBlock vector %d has length %d, want %d", l, len(y), n))
		}
	}
	// Element-major, as in PackBlock: sequential reads, k streams out.
	for j := 0; j < n; j++ {
		sr := src[j*k : j*k+k]
		for l, y := range ys {
			y[j] = sr[l]
		}
	}
}

// MulMat computes Y = A*X for k right-hand sides stored in the
// interleaved block layout (X[j*k+l] is element j of vector l; Y
// likewise per row). It is the sequential correctness reference for
// the register-blocked SpMM kernels and every prepared MulMat, exactly
// as MulVec anchors the SpMV kernels. X and Y must not alias (see MulVec).
func (m *CSR) MulMat(x, y []float64, k int) {
	if k < 1 {
		panic(fmt.Sprintf("matrix: MulMat block width %d < 1", k))
	}
	if len(x) != m.NCols*k || len(y) != m.NRows*k {
		panic(fmt.Sprintf("matrix: MulMat dimension mismatch: x=%d y=%d for %dx%d with k=%d",
			len(x), len(y), m.NRows, m.NCols, k))
	}
	if Aliased(x, y) {
		panic("matrix: MulMat input and output must not alias")
	}
	for i := 0; i < m.NRows; i++ {
		yr := y[i*k : i*k+k]
		for l := range yr {
			yr[l] = 0
		}
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			v := m.Val[j]
			xr := x[int(m.ColInd[j])*k:][:k]
			for l := range yr {
				yr[l] += v * xr[l]
			}
		}
	}
}
