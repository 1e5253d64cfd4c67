//go:build amd64 && !noasm

// Runtime dispatch for the SIMD assembly bodies in asm_amd64.s. The
// ISA is detected once, at package init, straight from CPUID + XGETBV
// (no build-time GOAMD64 assumption and no external cpu-feature
// dependency), and init lists the tiers the host executes, widest
// first: AVX-512F when the OS saves ZMM/opmask state, AVX2+FMA when
// the OS saves YMM state. With neither, and under the `noasm` build
// tag (which removes this file and the assembly entirely), the list is
// empty and every dispatched kernel is its pure-Go oracle, which is
// also how CI cross-checks every asm body against that oracle.
package kernels

import (
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// cpuid and xgetbv are implemented in asm_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// Assembly kernel bodies (asm_amd64.s).
//
//go:noescape
func csrGatherRangeAVX2(rowptr []int64, colind []int32, val, x, y []float64, lo, hi int)

//go:noescape
func csrGatherRangeAVX512(rowptr []int64, colind []int32, val, x, y []float64, lo, hi int)

//go:noescape
func sellChunkC8AVX2(vals *float64, cols *int32, x *float64, w int64, acc *[8]float64)

//go:noescape
func sellChunkC8AVX512(vals *float64, cols *int32, x *float64, w int64, acc *[8]float64)

//go:noescape
func csrBlock4RangeAVX2(rowptr []int64, colind []int32, val, x, y []float64, lo, hi int)

//go:noescape
func csrBlock8RangeAVX2(rowptr []int64, colind []int32, val, x, y []float64, lo, hi int)

//go:noescape
func csrBlock8RangeAVX512(rowptr []int64, colind []int32, val, x, y []float64, lo, hi int)

// Deltas are 8- or 16-bit; each tier has one body per width
// (DELTA_AVX512 and DELTA_AVX2 in asm_amd64.s).
//
//go:noescape
func deltaRange8AVX2(rowptr []int64, firstcol []int32, deltas []uint8, overflow []int32, val, x, y []float64, lo, hi, oi int)

//go:noescape
func deltaRange16AVX2(rowptr []int64, firstcol []int32, deltas []uint16, overflow []int32, val, x, y []float64, lo, hi, oi int)

//go:noescape
func deltaRange8AVX512(rowptr []int64, firstcol []int32, deltas []uint8, overflow []int32, val, x, y []float64, lo, hi, oi int)

//go:noescape
func deltaRange16AVX512(rowptr []int64, firstcol []int32, deltas []uint16, overflow []int32, val, x, y []float64, lo, hi, oi int)

// The two tiers. block4's natural width is one YMM, so the AVX-512
// tier keeps the AVX2 k=4 body.
var (
	avx2Tier = isaTier{isa: "avx2", lanes: 4, csr: csrVec8AVX2, sell: sellCS8RangeAVX2,
		block4: csrBlock4AVX2, block8: csrBlock8AVX2, delta: deltaVec8AVX2}
	avx512Tier = isaTier{isa: "avx512", lanes: 8, csr: csrVec8AVX512, sell: sellCS8RangeAVX512,
		block4: csrBlock4AVX2, block8: csrBlock8AVX512, delta: deltaVec8AVX512}
)

func init() {
	avx2, avx512 := detectISA()
	if avx512 {
		tiers = append(tiers, avx512Tier)
	}
	if avx2 {
		tiers = append(tiers, avx2Tier)
	}
	if len(tiers) > 0 {
		block4Impl, block8Impl = tiers[0].block4, tiers[0].block8
	}
}

// detectISA reads the feature and OS-state bits the kernels need:
// AVX2 requires FMA, OSXSAVE and XCR0 XMM+YMM state; AVX-512 further
// requires the F foundation bit and XCR0 opmask+ZMM state (bits
// 5..7). Hosts where the OS disables ZMM state fall back to AVX2.
func detectISA() (avx2, avx512 bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	if c1&osxsave == 0 || c1&avx == 0 || c1&fma == 0 {
		return false, false
	}
	xlo, _ := xgetbv()
	if xlo&0x6 != 0x6 { // XMM + YMM state saved
		return false, false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2Bit, avx512f = 1 << 5, 1 << 16
	if b7&avx2Bit == 0 {
		return false, false
	}
	return true, b7&avx512f != 0 && xlo&0xe6 == 0xe6 // + opmask, ZMM_Hi256, Hi16_ZMM
}

//spmv:hotpath
func csrVec8AVX2(m *matrix.CSR, x, y []float64, lo, hi int) {
	csrGatherRangeAVX2(m.RowPtr, m.ColInd, m.Val, x, y, lo, hi)
}

//spmv:hotpath
func csrVec8AVX512(m *matrix.CSR, x, y []float64, lo, hi int) {
	csrGatherRangeAVX512(m.RowPtr, m.ColInd, m.Val, x, y, lo, hi)
}

//spmv:hotpath
func sellCS8RangeAVX2(s *formats.SellCS, x, y []float64, lo, hi int) {
	for k := lo; k < hi; k++ {
		var acc [8]float64
		if w := int64(s.Width[k]); w > 0 {
			p := s.ChunkPtr[k]
			sellChunkC8AVX2(&s.Vals[p], &s.Cols[p], &x[0], w, &acc)
		}
		sellScatterC8(s, y, k, &acc)
	}
}

//spmv:hotpath
func sellCS8RangeAVX512(s *formats.SellCS, x, y []float64, lo, hi int) {
	for k := lo; k < hi; k++ {
		var acc [8]float64
		if w := int64(s.Width[k]); w > 0 {
			p := s.ChunkPtr[k]
			sellChunkC8AVX512(&s.Vals[p], &s.Cols[p], &x[0], w, &acc)
		}
		sellScatterC8(s, y, k, &acc)
	}
}

//spmv:hotpath
func csrBlock4AVX2(m *matrix.CSR, x, y []float64, lo, hi int) {
	csrBlock4RangeAVX2(m.RowPtr, m.ColInd, m.Val, x, y, lo, hi)
}

//spmv:hotpath
func csrBlock8AVX2(m *matrix.CSR, x, y []float64, lo, hi int) {
	csrBlock8RangeAVX2(m.RowPtr, m.ColInd, m.Val, x, y, lo, hi)
}

//spmv:hotpath
func csrBlock8AVX512(m *matrix.CSR, x, y []float64, lo, hi int) {
	csrBlock8RangeAVX512(m.RowPtr, m.ColInd, m.Val, x, y, lo, hi)
}

//spmv:hotpath
func deltaVec8AVX2(d *formats.DeltaCSR, x, y []float64, lo, hi, oi int) {
	if d.Width == formats.Delta8 {
		deltaRange8AVX2(d.RowPtr, d.FirstCol, d.Deltas8, d.Overflow, d.Val, x, y, lo, hi, oi)
		return
	}
	deltaRange16AVX2(d.RowPtr, d.FirstCol, d.Deltas16, d.Overflow, d.Val, x, y, lo, hi, oi)
}

//spmv:hotpath
func deltaVec8AVX512(d *formats.DeltaCSR, x, y []float64, lo, hi, oi int) {
	if d.Width == formats.Delta8 {
		deltaRange8AVX512(d.RowPtr, d.FirstCol, d.Deltas8, d.Overflow, d.Val, x, y, lo, hi, oi)
		return
	}
	deltaRange16AVX512(d.RowPtr, d.FirstCol, d.Deltas16, d.Overflow, d.Val, x, y, lo, hi, oi)
}
