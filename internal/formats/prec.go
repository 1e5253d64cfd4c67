package formats

import (
	"fmt"
	"math"

	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// Precision-reduced value storage: the MB-class bandwidth lever that
// halves the dominant value stream. Values are stored as float32;
// kernels always accumulate in float64, so only the stored payload
// narrows. A matrix is reduced only when FitsF32 accepts its values:
// callers check first and keep the f64 form otherwise, so a finite
// f64 that overflows or underflows float32 never turns silently into
// ±Inf or 0.

// F32EntryBound is the per-entry relative storage error the f32 form
// tolerates. float32 rounding of a normal-range value is below
// 2^-24 ≈ 6e-8 relative, so in practice only values beyond float32's
// range or deep in its subnormals exceed it.
const F32EntryBound = 1e-6

// FitsF32 reports whether every finite value's float32 image stays
// finite and within F32EntryBound relative error of it. NaN and ±Inf
// fit: float32 has the same specials. SSS and SELL-C-σ store the same
// value set as CSR (plus exact zeros), so one check on a CSR's Val
// covers all three reduced formats.
func FitsF32(vals []float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		w := float64(float32(v))
		if math.IsInf(w, 0) || math.Abs(v-w) > F32EntryBound*math.Abs(v) {
			return false
		}
	}
	return true
}

// narrow returns the float32 image of every value.
func narrow(vals []float64) []float32 {
	out := make([]float32, len(vals))
	for i, v := range vals {
		out[i] = float32(v)
	}
	return out
}

// PrecCSR is CSR with float32 values: the structure arrays alias the
// source matrix (RowPtr/ColInd are shared, not copied).
type PrecCSR struct {
	NRows, NCols int
	RowPtr       []int64
	ColInd       []int32
	Val          []float32

	Name string
}

// ConvertPrecCSR builds the float32-valued form of m. Its results are
// within F32EntryBound of m's only when FitsF32(m.Val) holds.
func ConvertPrecCSR(m *matrix.CSR) *PrecCSR {
	return &PrecCSR{
		NRows:  m.NRows,
		NCols:  m.NCols,
		RowPtr: m.RowPtr,
		ColInd: m.ColInd,
		Val:    narrow(m.Val),
		Name:   m.Name,
	}
}

// NNZ returns the stored element count.
func (p *PrecCSR) NNZ() int { return len(p.Val) }

// Bytes returns the memory footprint of the reduced arrays: 4-byte
// values and the shared structure arrays. This is what the kernels
// stream per multiply and what the serving layer's budget accounts
// for the format.
func (p *PrecCSR) Bytes() int64 {
	return int64(len(p.Val))*4 + int64(len(p.ColInd))*4 + int64(len(p.RowPtr))*8
}

// MulVec computes y = A*x sequentially from the reduced storage — the
// correctness reference for the parallel precision kernels.
func (p *PrecCSR) MulVec(x, y []float64) {
	if len(x) != p.NCols || len(y) != p.NRows {
		panic(fmt.Sprintf("formats: PrecCSR.MulVec dimension mismatch: x=%d y=%d for %dx%d",
			len(x), len(y), p.NRows, p.NCols))
	}
	if matrix.Aliased(x, y) {
		panic("formats: PrecCSR.MulVec input and output must not alias")
	}
	for i := 0; i < p.NRows; i++ {
		var sum float64
		for j := p.RowPtr[i]; j < p.RowPtr[i+1]; j++ {
			sum += float64(p.Val[j]) * x[p.ColInd[j]]
		}
		y[i] = sum
	}
}

// PrecSellCS is SELL-C-σ with float32 padded values. The geometry
// arrays alias the f64 conversion's.
type PrecSellCS struct {
	NRows, NCols int
	C            int
	ChunkPtr     []int64
	Cols         []int32
	Vals         []float32
	Perm         []int32
	RowLen       []int32

	nnz  int
	Name string
}

// ConvertPrecSellCS reduces an existing SELL-C-σ conversion. Padding
// slots carry value 0 exactly in both precisions.
func ConvertPrecSellCS(s *SellCS) *PrecSellCS {
	return &PrecSellCS{
		NRows:    s.NRows,
		NCols:    s.NCols,
		C:        s.C,
		ChunkPtr: s.ChunkPtr,
		Cols:     s.Cols,
		Vals:     narrow(s.Vals),
		Perm:     s.Perm,
		RowLen:   s.RowLen,
		nnz:      s.nnz,
		Name:     s.Name,
	}
}

// NChunks returns the number of row chunks.
func (p *PrecSellCS) NChunks() int { return len(p.ChunkPtr) - 1 }

// NNZ returns the real (unpadded) stored element count.
func (p *PrecSellCS) NNZ() int { return p.nnz }

// Bytes returns the memory footprint of the reduced SELL arrays plus
// the shared geometry.
func (p *PrecSellCS) Bytes() int64 {
	return int64(len(p.Vals))*4 + int64(len(p.Cols))*4 +
		int64(len(p.ChunkPtr))*8 + int64(len(p.Perm))*4 + int64(len(p.RowLen))*4
}

// MulVec computes y = A*x sequentially — the reference for the
// parallel precision SELL kernels; y is in original row order.
func (p *PrecSellCS) MulVec(x, y []float64) {
	if len(x) != p.NCols || len(y) != p.NRows {
		panic(fmt.Sprintf("formats: PrecSellCS.MulVec dimension mismatch: x=%d y=%d for %dx%d",
			len(x), len(y), p.NRows, p.NCols))
	}
	if matrix.Aliased(x, y) {
		panic("formats: PrecSellCS.MulVec input and output must not alias")
	}
	c := p.C
	for k := 0; k < p.NRows; k++ {
		var sum float64
		at := p.ChunkPtr[k/c] + int64(k%c)
		for j := int32(0); j < p.RowLen[k]; j++ {
			sum += float64(p.Vals[at]) * x[p.Cols[at]]
			at += int64(c)
		}
		y[p.Perm[k]] = sum
	}
}

// PrecSSS is symmetric storage with a float32 lower triangle. The
// diagonal stays float64 (a dense N-length array is not the bandwidth
// problem; keeping it exact removes the diagonal from the error
// budget).
type PrecSSS struct {
	N      int
	RowPtr []int64
	ColInd []int32
	Val    []float32
	Diag   []float64

	Name string
}

// ConvertPrecSSS reduces an existing SSS conversion's lower triangle.
func ConvertPrecSSS(s *SSS) *PrecSSS {
	L := s.Lower
	return &PrecSSS{
		N:      s.N,
		RowPtr: L.RowPtr,
		ColInd: L.ColInd,
		Val:    narrow(L.Val),
		Diag:   s.Diag,
		Name:   s.Name,
	}
}

// NNZ returns the stored lower-triangle element count.
func (p *PrecSSS) NNZ() int { return len(p.Val) }

// Bytes returns the memory footprint of the reduced SSS arrays: the
// 4-byte lower-triangle values, its structure and the f64 diagonal.
func (p *PrecSSS) Bytes() int64 {
	return int64(len(p.Val))*4 + int64(len(p.ColInd))*4 + int64(len(p.RowPtr))*8 +
		int64(len(p.Diag))*8
}

// MulVec computes y = A*x sequentially from the reduced symmetric
// storage — the reference for the parallel precision SSS kernel. Each
// stored off-diagonal element contributes to two output rows.
func (p *PrecSSS) MulVec(x, y []float64) {
	if len(x) != p.N || len(y) != p.N {
		panic(fmt.Sprintf("formats: PrecSSS.MulVec dimension mismatch: x=%d y=%d for n=%d",
			len(x), len(y), p.N))
	}
	if matrix.Aliased(x, y) {
		panic("formats: PrecSSS.MulVec input and output must not alias")
	}
	for i := 0; i < p.N; i++ {
		y[i] = p.Diag[i] * x[i]
	}
	for i := 0; i < p.N; i++ {
		xi := x[i]
		var sum float64
		for j := p.RowPtr[i]; j < p.RowPtr[i+1]; j++ {
			c := p.ColInd[j]
			v := float64(p.Val[j])
			sum += v * x[c]
			y[c] += v * xi
		}
		y[i] += sum
	}
}
