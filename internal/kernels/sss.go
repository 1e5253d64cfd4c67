package kernels

import (
	"github.com/sparsekit/spmvtuner/internal/formats"
)

// Symmetric (SSS) kernels. Each thread owns a contiguous row range
// [lo, hi) of the lower triangle: the diagonal and lower contributions
// of its own rows land directly in y (row ownership is exclusive),
// and the mirrored transpose contribution of every stored (i, c)
// goes to row c < i. A row c ≥ lo is the thread's own and was already
// written — rows run in ascending order — so that contribution adds
// straight into y[c]. Only a row c < lo belongs to an earlier thread;
// those contributions accumulate in the thread's conflict window, the
// rows [base, lo) its scatters can reach (formats.SymWindows), which
// the reduction engine (internal/native) folds into y after the
// barrier. Rows are column-sorted (ConvertSSS admits only matrices
// DetectSymmetry proves symmetric), so a row's first column is its
// smallest: one test per row sends every row lying entirely at or
// after lo — all but about one bandwidth of rows per range on a banded
// matrix — through the branch-free loop into y.

// SSSRows computes rows [lo, hi) of the symmetric kernel over the
// lower-triangle value array *val (&s.Lower.Val for the float64
// instance): y[i] gets the diagonal plus lower-triangle dot product of
// row i, and the mirrored contribution v*x[i] of each stored (i, c)
// adds into y[c] when c ≥ lo and into window[c-base] otherwise. base
// must not exceed the smallest column of rows [lo, hi), and the caller
// zeroes window[0 : lo-base) before the pass; no other window cell and
// no y cell outside [lo, hi) is touched. s supplies only the structure
// (Lower.RowPtr, Lower.ColInd) and the f64 diagonal, so the float32
// instance keeps the diagonal exact and narrows only the triangle.
//
//spmv:hotpath
func SSSRows[V formats.Value](s *formats.SSS, val *[]V, x, y, window []float64, base, lo, hi int) {
	L := s.Lower
	for i := lo; i < hi; i++ {
		xi := x[i]
		sum := s.Diag[i] * xi
		cols := L.ColInd[L.RowPtr[i]:L.RowPtr[i+1]]
		vals := (*val)[L.RowPtr[i]:L.RowPtr[i+1]]
		vals = vals[:len(cols)]
		if len(cols) > 0 && int(cols[0]) < lo {
			for j, c := range cols {
				v := float64(vals[j])
				sum += v * x[c]
				if int(c) < lo {
					window[int(c)-base] += v * xi
				} else {
					y[c] += v * xi
				}
			}
		} else {
			for j, c := range cols {
				v := float64(vals[j])
				sum += v * x[c]
				y[c] += v * xi
			}
		}
		y[i] = sum
	}
}
