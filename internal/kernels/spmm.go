package kernels

import "github.com/sparsekit/spmvtuner/internal/matrix"

// Blocked multi-RHS SpMM kernels. SpMV is bandwidth bound: the matrix
// stream (values + indices) is read once per multiply and its
// arithmetic intensity is fixed, so the only way past the bandwidth
// roof is to amortize that stream across work. These kernels process a
// block of k right-hand sides in the interleaved layout of
// matrix.PackBlock, streaming Val/ColInd exactly once per block with
// one named accumulator per vector. Only k = 4 and k = 8 have bodies:
// they are the widths where the blocked CSR row loop beats k gather
// SpMVs on the measured host (docs/guide/batching.md), with and
// without assembly.

// CSRBlockRange is the CSR blocked kernel at k = 4 or 8: the widest
// register-blocked body the host executes (the AVX2/AVX-512 assembly
// forms — broadcast + unit-stride FMA, no gathers — selected at
// package init, the pure-Go forms otherwise). Any other k panics.
//
//spmv:hotpath
func CSRBlockRange(m *matrix.CSR, x, y []float64, k, lo, hi int) {
	switch k {
	case 4:
		block4Impl(m, x, y, lo, hi)
	case 8:
		block8Impl(m, x, y, lo, hi)
	default:
		panic("kernels: CSRBlockRange needs k = 4 or 8")
	}
}

// ScalarCSRBlockRange is CSRBlockRange pinned to the pure-Go bodies
// regardless of dispatch: the differential oracle for the assembly
// block kernels and the scalar side of the kernel-trajectory
// benchmark (spmvbench -exp kernels).
func ScalarCSRBlockRange(m *matrix.CSR, x, y []float64, k, lo, hi int) {
	switch k {
	case 4:
		csrBlock4Range(m, x, y, lo, hi)
	case 8:
		csrBlock8Range(m, x, y, lo, hi)
	default:
		panic("kernels: ScalarCSRBlockRange needs k = 4 or 8")
	}
}

// block4Impl and block8Impl are the dispatched register-blocked
// bodies for the interleaved k=4 and k=8 layouts. They default to the
// pure-Go forms; the amd64 dispatch init (dispatch_amd64.go) replaces
// them with the assembly kernels when the host ISA supports them.
// Written only during package init, read-only afterwards.
var (
	block4Impl func(m *matrix.CSR, x, y []float64, lo, hi int) = csrBlock4Range
	block8Impl func(m *matrix.CSR, x, y []float64, lo, hi int) = csrBlock8Range
)

//spmv:hotpath
func csrBlock4Range(m *matrix.CSR, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var a0, a1, a2, a3 float64
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			v := m.Val[j]
			xr := x[int(m.ColInd[j])*4:][:4]
			a0 += v * xr[0]
			a1 += v * xr[1]
			a2 += v * xr[2]
			a3 += v * xr[3]
		}
		o := i * 4
		y[o], y[o+1], y[o+2], y[o+3] = a0, a1, a2, a3
	}
}

//spmv:hotpath
func csrBlock8Range(m *matrix.CSR, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			v := m.Val[j]
			xr := x[int(m.ColInd[j])*8:][:8]
			a0 += v * xr[0]
			a1 += v * xr[1]
			a2 += v * xr[2]
			a3 += v * xr[3]
			a4 += v * xr[4]
			a5 += v * xr[5]
			a6 += v * xr[6]
			a7 += v * xr[7]
		}
		o := i * 8
		y[o], y[o+1], y[o+2], y[o+3] = a0, a1, a2, a3
		y[o+4], y[o+5], y[o+6], y[o+7] = a4, a5, a6, a7
	}
}
