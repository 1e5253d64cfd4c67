// Package kernels provides the native SpMV kernels corresponding to
// the simulator's configurations: the scalar CSR baseline (Fig 2), the
// CSR vector kernel, DeltaCSR kernels, SELL-C-σ chunk kernels, and the
// two modified bound kernels of Section III-B. All kernels operate on
// row ranges so the parallel executor can drive them under any
// schedule.
//
// The hottest inner loops — the CSR vector kernel, the DeltaCSR
// decoder, the SELL-C-σ C=8 chunk kernel, and the register-blocked
// SpMM k=4/8 bodies — also exist as real SIMD assembly (asm_amd64.s:
// AVX2+FMA and AVX-512F tiers) behind runtime dispatch
// (dispatch_amd64.go); Variant, DeltaVariant, SellCSVariant and
// CSRBlockRange hand out the widest body the host executes, and
// VariantName/DeltaVariantName/ISA record which one won. The paper's
// prefetch (ML) and unrolling (CMP) optimizations have no scalar
// bodies here: the dispatched gather body serves both, measured
// faster than either scalar form on every suite matrix, and
// exec.Optim.Canonical folds their knobs into Vectorize. The paper's
// MB remedy, compression plus vectorization, is the delta decoder: it
// unpacks 16 deltas per step in registers and gathers, and Canonical
// gives every Delta plan Vectorize for it. The paper's IMB remedy, the
// two-phase long-row decomposition of Fig 6, has no body either:
// Canonical runs every host Split plan on the gather body under the
// auto schedule, which beat it on every suite matrix with long rows.
// The pure-Go forms below (DeltaCSR.MulVecRows for the decoder) are
// the differential-test oracle every assembly body is verified against
// (dispatch_test.go), and the only bodies built under `-tags noasm` or
// on non-amd64 hosts. See docs/guide/simd.md. The register-blocked
// SpMM bodies (spmm.go) exist only for CSR float64 at k = 4 and 8: no
// other format or width has a blocked body, since none beat k
// single-vector multiplies on the measured host.
//
// Each pure-Go loop shape has one body generic over the stored value
// type (formats.Value): CSRRows, CSRVector8Rows and SSSRows here,
// formats.SellCSChunks for SELL-C-σ. The float64 kernels run the
// float64 instance; the reduced-precision bindings run the float32
// instance on the same structure, always accumulating in float64.
package kernels

import (
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// RangeKernel computes y[lo:hi] for rows [lo, hi).
type RangeKernel func(m *matrix.CSR, x, y []float64, lo, hi int)

// CSRRange is the canonical scalar kernel of Fig 2 restricted to a row
// range.
//
//spmv:hotpath
func CSRRange(m *matrix.CSR, x, y []float64, lo, hi int) {
	CSRRows(m, &m.Val, x, y, lo, hi)
}

// CSRRows is the scalar CSR row body over the value array *val: m
// supplies only the structure (RowPtr, ColInd), so the float32
// instance runs on the same rows with narrowed values.
//
//spmv:hotpath
func CSRRows[V formats.Value](m *matrix.CSR, val *[]V, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var sum float64
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			sum += float64((*val)[j]) * x[m.ColInd[j]]
		}
		y[i] = sum
	}
}

// CSRVector8Range is the pure-Go vector kernel: eight independent
// accumulators mirroring an 8-lane SIMD unit. Since the AVX2/AVX-512
// gather bodies landed (asm_amd64.s) it is no longer a stand-in but
// the differential-test oracle for them — Variant dispatches to the
// assembly when the host has it and to this form otherwise.
//
//spmv:hotpath
func CSRVector8Range(m *matrix.CSR, x, y []float64, lo, hi int) {
	CSRVector8Rows(m, &m.Val, x, y, lo, hi)
}

// CSRVector8Rows is the eight-accumulator row body of CSRVector8Range
// over the value array *val, under the CSRRows structure contract.
//
//spmv:hotpath
func CSRVector8Rows[V formats.Value](m *matrix.CSR, val *[]V, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		jlo, jhi := m.RowPtr[i], m.RowPtr[i+1]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		j := jlo
		for ; j+8 <= jhi; j += 8 {
			s0 += float64((*val)[j]) * x[m.ColInd[j]]
			s1 += float64((*val)[j+1]) * x[m.ColInd[j+1]]
			s2 += float64((*val)[j+2]) * x[m.ColInd[j+2]]
			s3 += float64((*val)[j+3]) * x[m.ColInd[j+3]]
			s4 += float64((*val)[j+4]) * x[m.ColInd[j+4]]
			s5 += float64((*val)[j+5]) * x[m.ColInd[j+5]]
			s6 += float64((*val)[j+6]) * x[m.ColInd[j+6]]
			s7 += float64((*val)[j+7]) * x[m.ColInd[j+7]]
		}
		var tail float64
		for ; j < jhi; j++ {
			tail += float64((*val)[j]) * x[m.ColInd[j]]
		}
		y[i] = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)) + tail
	}
}

// RegularizedRange is the P_ML bound kernel: every access to x is made
// regular by using the row index instead of the column index. It does
// NOT compute A*x; it exists to measure what performance would be if
// irregularity vanished (Section III-B).
//
//spmv:hotpath
func RegularizedRange(m *matrix.CSR, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		xi := x[i%len(x)]
		var sum float64
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			sum += m.Val[j] * xi
		}
		y[i] = sum
	}
}

// UnitStrideRange is the P_CMP bound kernel: indirect references are
// eliminated entirely — no colind loads, unit-stride access to x only.
// Like RegularizedRange it is a measurement probe, not SpMV.
//
//spmv:hotpath
func UnitStrideRange(m *matrix.CSR, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		xi := x[i%len(x)]
		var sum float64
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			sum += m.Val[j] * xi
		}
		y[i] = sum
	}
}

// DeltaKernel computes y[lo:hi] of a DeltaCSR for rows [lo, hi);
// overflowStart must be the delta stream's overflow offset at row lo
// (see DeltaCSR.OverflowOffsets).
type DeltaKernel func(d *formats.DeltaCSR, x, y []float64, lo, hi, overflowStart int)

// DeltaRange runs the scalar DeltaCSR decoder (DeltaCSR.MulVecRows)
// over a row range: the oracle of the dispatched delta bodies and the
// body DeltaVariant hands out when no assembly tier is usable.
//
//spmv:hotpath
func DeltaRange(d *formats.DeltaCSR, x, y []float64, lo, hi, overflowStart int) {
	d.MulVecRows(x, y, lo, hi, overflowStart)
}

// SellCSRange computes the rows of SELL-C-σ chunks [lo, hi), writing
// each real row's dot product to y[original row] through the chunk's
// permutation. Chunks own disjoint rows, so disjoint chunk ranges run
// in parallel without synchronization. This is the plain (any-C)
// variant; it walks each row along the column-major layout, stopping at
// the row's real length.
//
//spmv:hotpath
func SellCSRange(s *formats.SellCS, x, y []float64, lo, hi int) {
	s.MulVecChunks(x, y, lo, hi)
}

// SellCS8Range is the wide-SIMD variant for C == 8: it traverses a
// chunk column-major with eight independent accumulators — one vector
// op per padded column slot, the access pattern an 8-lane SIMD unit
// executes — and scatters the results through the permutation. Padding
// slots hold value 0 and repeat the row's last real column, so for
// finite x they contribute nothing; a non-finite x entry can turn a
// padded 0*x into NaN, but only on rows whose true result is already
// non-finite (the repeated column is one the row genuinely reads).
// Empty rows are scattered as exact zeros regardless of x.
//
//spmv:hotpath
func SellCS8Range(s *formats.SellCS, x, y []float64, lo, hi int) {
	if s.C != 8 {
		SellCSRange(s, x, y, lo, hi)
		return
	}
	for k := lo; k < hi; k++ {
		var acc [8]float64
		p := s.ChunkPtr[k]
		for j := int32(0); j < s.Width[k]; j++ {
			acc[0] += s.Vals[p] * x[s.Cols[p]]
			acc[1] += s.Vals[p+1] * x[s.Cols[p+1]]
			acc[2] += s.Vals[p+2] * x[s.Cols[p+2]]
			acc[3] += s.Vals[p+3] * x[s.Cols[p+3]]
			acc[4] += s.Vals[p+4] * x[s.Cols[p+4]]
			acc[5] += s.Vals[p+5] * x[s.Cols[p+5]]
			acc[6] += s.Vals[p+6] * x[s.Cols[p+6]]
			acc[7] += s.Vals[p+7] * x[s.Cols[p+7]]
			p += 8
		}
		sellScatterC8(s, y, k, &acc)
	}
}

// sellScatterC8 writes one C=8 chunk's accumulators to y through the
// permutation, shared by the pure-Go kernel and the asm dispatch
// wrappers so the empty-row rule has exactly one implementation.
//
//spmv:hotpath
func sellScatterC8(s *formats.SellCS, y []float64, k int, acc *[8]float64) {
	base := k * 8
	rows := 8
	if base+rows > s.NRows {
		rows = s.NRows - base
	}
	for r := 0; r < rows; r++ {
		if s.RowLen[base+r] == 0 {
			// An empty row's lanes are pure padding (column 0);
			// write the exact zero the reference produces even
			// when x[0] is non-finite.
			y[s.Perm[base+r]] = 0
			continue
		}
		y[s.Perm[base+r]] = acc[r]
	}
}

// isaTier is one instruction set's assembly bodies.
type isaTier struct {
	isa    string // "avx512" or "avx2": the kernel-name suffix
	lanes  int    // float64 lanes of one vector register
	csr    RangeKernel
	sell   func(s *formats.SellCS, x, y []float64, lo, hi int)
	block4 func(m *matrix.CSR, x, y []float64, lo, hi int)
	block8 func(m *matrix.CSR, x, y []float64, lo, hi int)
	delta  DeltaKernel
}

// tiers lists the assembly tiers this host executes, widest first;
// the first is the one dispatched. dispatch_amd64.go fills it at
// init. It stays empty off amd64, under `-tags noasm` and on hosts
// without AVX2+FMA, where every dispatched kernel is its pure-Go
// oracle. The differential tests run every listed tier, not just the
// dispatched one.
var tiers []isaTier

// ISA names the instruction set the dispatched kernels execute on
// this host: "avx512", "avx2", or "scalar". It is what VariantName
// suffixes kernel names with and what plans record as provenance.
func ISA() string {
	if len(tiers) == 0 {
		return "scalar"
	}
	return tiers[0].isa
}

// ISALanes is the float64 vector width of the dispatched ISA (8, 4,
// or 1) — the lanes figure the host cost model prices vector ops at.
func ISALanes() int {
	if len(tiers) == 0 {
		return 1
	}
	return tiers[0].lanes
}

// isaSuffix is the dispatched bodies' name suffix ("-avx512",
// "-avx2"), empty when the pure-Go bodies run.
func isaSuffix() string {
	if len(tiers) == 0 {
		return ""
	}
	return "-" + tiers[0].isa
}

// SellCSVariant selects the SELL-C-σ chunk kernel: when the chunk
// height matches the vector width, the widest column-major form the
// host dispatches (the AVX2/AVX-512 body with an ISA-suffixed name,
// the 8-accumulator pure-Go form otherwise); the plain row walk at
// any other chunk height.
func SellCSVariant(s *formats.SellCS) (func(s *formats.SellCS, x, y []float64, lo, hi int), string) {
	switch {
	case s.C != 8:
		return SellCSRange, "sellcs"
	case len(tiers) > 0:
		return tiers[0].sell, "sellcs-c8" + isaSuffix()
	}
	return SellCS8Range, "sellcs-c8"
}

// VariantName names the kernel Variant selects for the same flag, for
// diagnostics, prepared-kernel introspection and plan provenance.
// Names of dispatched assembly bodies carry the ISA suffix ("-avx2",
// "-avx512"); pure-Go bodies are unsuffixed.
func VariantName(vectorize bool) string {
	if !vectorize {
		return "csr"
	}
	return "csr-vec8" + isaSuffix()
}

// Variant selects the CSR range kernel (compression is handled by the
// executor, which owns the converted formats): with
// vectorize, the widest assembly body the host executes
// (CSRVector8Range without one), the scalar CSRRange otherwise.
func Variant(vectorize bool) RangeKernel {
	switch {
	case !vectorize:
		return CSRRange
	case len(tiers) > 0:
		return tiers[0].csr
	}
	return CSRVector8Range
}

// DeltaVariant selects the DeltaCSR range kernel every Delta plan
// binds: the widest assembly decoder the host executes, which unpacks
// 8- or 16-bit deltas in registers, gathers x and FMAs; DeltaRange
// (the scalar MulVecRows oracle) without one.
func DeltaVariant() DeltaKernel {
	if len(tiers) == 0 {
		return DeltaRange
	}
	return tiers[0].delta
}

// DeltaVariantName names the kernel DeltaVariant selects:
// "delta-vec8-<isa>" for an assembly decoder, "delta" for the scalar
// oracle.
func DeltaVariantName() string {
	if len(tiers) == 0 {
		return "delta"
	}
	return "delta-vec8" + isaSuffix()
}
