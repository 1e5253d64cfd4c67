package kernels

import (
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// Blocked multi-RHS SpMM kernels. SpMV is bandwidth bound: the matrix
// stream (values + indices) is read once per multiply and its
// arithmetic intensity is fixed, so the only way past the bandwidth
// roof is to amortize that stream across work. These kernels process a
// block of k right-hand sides in the interleaved layout of
// matrix.PackBlock, streaming Val/ColInd exactly once per block — the
// per-vector matrix traffic drops by 1/k while the flops stay put,
// which is the intensity lift the cost model (sim) prices. k ∈ {2,4,8}
// run register-blocked with one named accumulator per vector; any
// other k takes the generic tail, which accumulates directly into the
// (L1-resident) output row.

// BlockKernel computes rows [lo, hi) of Y = A*X for k interleaved
// right-hand sides.
type BlockKernel func(m *matrix.CSR, x, y []float64, k, lo, hi int)

// CSRBlockRange is the CSR blocked kernel: it dispatches to the
// register-blocked k=2/4/8 specializations — the widest bodies the
// host executes: the k=4/8 blocks have AVX2/AVX-512 assembly forms
// (broadcast + unit-stride FMA, no gathers) selected at package init
// — and falls back to the generic-k tail otherwise (k=1 degenerates
// to the scalar SpMV).
//
//spmv:hotpath
func CSRBlockRange(m *matrix.CSR, x, y []float64, k, lo, hi int) {
	switch k {
	case 1:
		CSRRange(m, x, y, lo, hi)
	case 2:
		csrBlock2Range(m, x, y, lo, hi)
	case 4:
		block4Impl(m, x, y, lo, hi)
	case 8:
		block8Impl(m, x, y, lo, hi)
	default:
		CSRBlockRows(m, &m.Val, x, y, k, lo, hi)
	}
}

// ScalarCSRBlockRange is CSRBlockRange pinned to the pure-Go bodies
// regardless of dispatch: the differential oracle for the assembly
// block kernels and the scalar side of the kernel-trajectory
// benchmark (spmvbench -exp kernels).
func ScalarCSRBlockRange(m *matrix.CSR, x, y []float64, k, lo, hi int) {
	switch k {
	case 1:
		CSRRange(m, x, y, lo, hi)
	case 2:
		csrBlock2Range(m, x, y, lo, hi)
	case 4:
		csrBlock4Range(m, x, y, lo, hi)
	case 8:
		csrBlock8Range(m, x, y, lo, hi)
	default:
		CSRBlockRows(m, &m.Val, x, y, k, lo, hi)
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
func csrBlock2Range(m *matrix.CSR, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var a0, a1 float64
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			v := m.Val[j]
			xr := x[int(m.ColInd[j])*2:][:2]
			a0 += v * xr[0]
			a1 += v * xr[1]
		}
		o := i * 2
		y[o], y[o+1] = a0, a1
	}
}

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

// CSRBlockRows is the any-k tail over the value array *val, under the
// CSRRows structure contract: the output row (k floats, L1 resident
// for the whole row) is the accumulator.
//
//spmv:hotpath
func CSRBlockRows[V formats.Value](m *matrix.CSR, val *[]V, x, y []float64, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		yr := y[i*k : i*k+k]
		for l := range yr {
			yr[l] = 0
		}
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			v := float64((*val)[j])
			xr := x[int(m.ColInd[j])*k:][:k]
			for l := range yr {
				yr[l] += v * xr[l]
			}
		}
	}
}

// DeltaBlockRange runs the blocked DeltaCSR kernel over a row range;
// overflowStart follows the DeltaRange contract.
//
//spmv:hotpath
func DeltaBlockRange(d *formats.DeltaCSR, x, y []float64, k, lo, hi, overflowStart int) {
	d.MulMatRows(x, y, k, lo, hi, overflowStart)
}

// SellCSBlockRange computes the rows of SELL-C-σ chunks [lo, hi) for k
// interleaved right-hand sides, scattering through the permutation as
// SellCSRange does. Chunks own disjoint rows, so disjoint chunk ranges
// run in parallel without synchronization.
//
//spmv:hotpath
func SellCSBlockRange(s *formats.SellCS, x, y []float64, k, lo, hi int) {
	s.MulMatChunks(x, y, k, lo, hi)
}
