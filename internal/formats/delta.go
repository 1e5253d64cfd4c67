// Package formats implements the CSR-derived storage formats of the
// paper's optimization pool (Table II): DeltaCSR, which compresses the
// column-index array with 8- or 16-bit deltas (the MB-class
// optimization, after Pooch & Nieder), plus SELL-C-σ and symmetric
// storage. A reduced-precision form is no separate type: it is a
// format's structure plus NarrowF32 of its values, run by the same
// loop bodies instantiated over Value (prec.go). The paper's long-row
// decomposition (Fig 5) has no storage format here: the host serves
// uneven row lengths with the CSR gather body under the auto schedule,
// and internal/sim prices the decomposition on the modeled platforms.
package formats

import (
	"fmt"

	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// DeltaWidth selects the delta encoding width. The paper uses 8- or
// 16-bit deltas "wherever possible, but never both, in order to limit
// the branching overhead" — so the width is a per-matrix choice.
type DeltaWidth int

const (
	// Delta8 stores column deltas in one byte.
	Delta8 DeltaWidth = 8
	// Delta16 stores column deltas in two bytes.
	Delta16 DeltaWidth = 16
)

// escape is the in-band delta value marking an overflow: column indices
// within a row are strictly increasing, so a delta of 0 never occurs
// naturally and is free to act as the escape code.
const escape = 0

// DeltaCSR stores a sparse matrix with delta-compressed column indices.
// Per row, the first column index is stored absolutely in FirstCol;
// each subsequent index is reconstructed as prev + delta. A delta that
// does not fit the chosen width is stored as the escape code plus a
// full-width entry consumed in order from Overflow.
type DeltaCSR struct {
	NRows, NCols int
	RowPtr       []int64   // length NRows+1, indexes Val and the delta stream
	FirstCol     []int32   // length NRows; -1 for empty rows
	Val          []float64 // length NNZ

	Width    DeltaWidth
	Deltas8  []uint8  // used when Width == Delta8; length NNZ (first slot per row unused)
	Deltas16 []uint16 // used when Width == Delta16
	Overflow []int32  // absolute columns for escaped deltas, in stream order

	Name string
}

// maxDelta returns the largest delta representable by w (the escape
// code occupies value 0, so the usable range is [1, 2^w-1]).
func (w DeltaWidth) maxDelta() int32 {
	switch w {
	case Delta8:
		return 255
	case Delta16:
		return 65535
	default:
		panic(fmt.Sprintf("formats: invalid delta width %d", w))
	}
}

// CompressDelta encodes m with the given width.
func CompressDelta(m *matrix.CSR, w DeltaWidth) *DeltaCSR {
	d := &DeltaCSR{
		NRows:    m.NRows,
		NCols:    m.NCols,
		RowPtr:   append([]int64(nil), m.RowPtr...),
		FirstCol: make([]int32, m.NRows),
		Val:      append([]float64(nil), m.Val...),
		Width:    w,
		Name:     m.Name,
	}
	maxD := w.maxDelta()
	nnz := m.NNZ()
	if w == Delta8 {
		d.Deltas8 = make([]uint8, nnz)
	} else {
		d.Deltas16 = make([]uint16, nnz)
	}
	for i := 0; i < m.NRows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if lo == hi {
			d.FirstCol[i] = -1
			continue
		}
		d.FirstCol[i] = m.ColInd[lo]
		prev := m.ColInd[lo]
		for j := lo + 1; j < hi; j++ {
			c := m.ColInd[j]
			delta := c - prev
			if delta <= 0 {
				panic(fmt.Sprintf("formats: row %d not strictly increasing at %d", i, j))
			}
			if delta > maxD {
				if w == Delta8 {
					d.Deltas8[j] = escape
				} else {
					d.Deltas16[j] = escape
				}
				d.Overflow = append(d.Overflow, c)
			} else {
				if w == Delta8 {
					d.Deltas8[j] = uint8(delta)
				} else {
					d.Deltas16[j] = uint16(delta)
				}
			}
			prev = c
		}
	}
	return d
}

// ChooseWidth picks the width with the smaller encoded footprint,
// honoring the paper's "8 or 16 bit, never both" rule. Ties go to
// Delta8 (less traffic).
func ChooseWidth(m *matrix.CSR) DeltaWidth {
	var over8, over16 int64
	for i := 0; i < m.NRows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for j := lo + 1; j < hi; j++ {
			delta := m.ColInd[j] - m.ColInd[j-1]
			if delta > 255 {
				over8++
			}
			if delta > 65535 {
				over16++
			}
		}
	}
	nnz := int64(m.NNZ())
	bytes8 := nnz*1 + over8*4
	bytes16 := nnz*2 + over16*4
	if bytes8 <= bytes16 {
		return Delta8
	}
	return Delta16
}

// Compress encodes m choosing the best width automatically.
func Compress(m *matrix.CSR) *DeltaCSR {
	return CompressDelta(m, ChooseWidth(m))
}

// NNZ returns the number of stored elements.
func (d *DeltaCSR) NNZ() int { return len(d.Val) }

// Bytes returns the memory footprint of the index+value arrays: the
// quantity the MB-class optimization exists to shrink.
func (d *DeltaCSR) Bytes() int64 {
	b := int64(len(d.Val))*8 + int64(len(d.RowPtr))*8 + int64(len(d.FirstCol))*4 + int64(len(d.Overflow))*4
	if d.Width == Delta8 {
		b += int64(len(d.Deltas8))
	} else {
		b += int64(len(d.Deltas16)) * 2
	}
	return b
}

// CompressionRatio returns CSR bytes divided by DeltaCSR bytes for the
// same matrix (>1 means the compression saves traffic).
func (d *DeltaCSR) CompressionRatio() float64 {
	csrBytes := int64(len(d.Val))*(8+4) + int64(len(d.RowPtr))*8
	return float64(csrBytes) / float64(d.Bytes())
}

// Decompress reconstructs the canonical CSR matrix. It is the inverse
// of CompressDelta and the basis of the round-trip property tests.
func (d *DeltaCSR) Decompress() *matrix.CSR {
	m := &matrix.CSR{
		NRows:  d.NRows,
		NCols:  d.NCols,
		RowPtr: append([]int64(nil), d.RowPtr...),
		ColInd: make([]int32, d.NNZ()),
		Val:    append([]float64(nil), d.Val...),
		Name:   d.Name,
	}
	oi := 0
	for i := 0; i < d.NRows; i++ {
		lo, hi := d.RowPtr[i], d.RowPtr[i+1]
		if lo == hi {
			continue
		}
		col := d.FirstCol[i]
		m.ColInd[lo] = col
		for j := lo + 1; j < hi; j++ {
			var delta int32
			if d.Width == Delta8 {
				delta = int32(d.Deltas8[j])
			} else {
				delta = int32(d.Deltas16[j])
			}
			if delta == escape {
				col = d.Overflow[oi]
				oi++
			} else {
				col += delta
			}
			m.ColInd[j] = col
		}
	}
	return m
}

// MulVecRows computes y[lo:hi] = (A*x)[lo:hi] for the row range
// [lo, hi) directly from the compressed form. Overflow entries are
// located per row via a precomputed per-row overflow offset when used
// in parallel; the sequential entry point scans from oi.
//
//spmv:hotpath
func (d *DeltaCSR) MulVecRows(x, y []float64, lo, hi int, overflowStart int) {
	oi := overflowStart
	if d.Width == Delta8 {
		for i := lo; i < hi; i++ {
			rlo, rhi := d.RowPtr[i], d.RowPtr[i+1]
			if rlo == rhi {
				y[i] = 0
				continue
			}
			col := d.FirstCol[i]
			sum := d.Val[rlo] * x[col]
			for j := rlo + 1; j < rhi; j++ {
				delta := d.Deltas8[j]
				if delta == escape {
					col = d.Overflow[oi]
					oi++
				} else {
					col += int32(delta)
				}
				sum += d.Val[j] * x[col]
			}
			y[i] = sum
		}
		return
	}
	for i := lo; i < hi; i++ {
		rlo, rhi := d.RowPtr[i], d.RowPtr[i+1]
		if rlo == rhi {
			y[i] = 0
			continue
		}
		col := d.FirstCol[i]
		sum := d.Val[rlo] * x[col]
		for j := rlo + 1; j < rhi; j++ {
			delta := d.Deltas16[j]
			if delta == escape {
				col = d.Overflow[oi]
				oi++
			} else {
				col += int32(delta)
			}
			sum += d.Val[j] * x[col]
		}
		y[i] = sum
	}
}

// OverflowOffsets returns, for each row, the index into Overflow where
// that row's escaped entries begin. Parallel kernels need this so each
// thread can start mid-stream.
func (d *DeltaCSR) OverflowOffsets() []int {
	offs := make([]int, d.NRows+1)
	count := 0
	for i := 0; i < d.NRows; i++ {
		offs[i] = count
		lo, hi := d.RowPtr[i], d.RowPtr[i+1]
		for j := lo + 1; j < hi; j++ {
			var isEsc bool
			if d.Width == Delta8 {
				isEsc = d.Deltas8[j] == escape
			} else {
				isEsc = d.Deltas16[j] == escape
			}
			if isEsc {
				count++
			}
		}
	}
	offs[d.NRows] = count
	return offs
}

// MulVec computes y = A*x sequentially from the compressed form.
func (d *DeltaCSR) MulVec(x, y []float64) {
	if len(x) != d.NCols || len(y) != d.NRows {
		panic("formats: DeltaCSR.MulVec dimension mismatch")
	}
	if matrix.Aliased(x, y) {
		panic("formats: DeltaCSR.MulVec input and output must not alias")
	}
	d.MulVecRows(x, y, 0, d.NRows, 0)
}
