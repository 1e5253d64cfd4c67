package formats

import (
	"fmt"
	"sort"

	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// SellCS is the SELL-C-σ sliced-ELLPACK format of Kreutzer et al. ("A
// unified sparse matrix data format for efficient general SpMV on
// modern processors with wide SIMD units"): rows are sorted by
// descending length inside windows of σ rows, grouped into chunks of C
// consecutive (permuted) rows, and each chunk is stored column-major,
// zero-padded to the length of its longest row. A SIMD unit of width C
// then processes one column of a chunk per vector operation with no
// per-row remainder handling — the wide-SIMD remedy for the short-row
// and imbalanced matrices where the row-wise CSR vector kernel starves.
//
// The row permutation is confined to σ-windows, so x-vector locality
// survives; Perm maps permuted positions back to original rows and the
// kernels scatter results directly into the caller's y, which therefore
// keeps the original row order.
type SellCS struct {
	NRows, NCols int
	// C is the chunk height (rows per chunk); Sigma is the sorting
	// window in rows.
	C, Sigma int

	// ChunkPtr indexes Cols/Vals per chunk (length NChunks+1); chunk k
	// occupies [ChunkPtr[k], ChunkPtr[k+1]) laid out column-major with
	// stride C: element (row r of chunk, column slot j) lives at
	// ChunkPtr[k] + j*C + r.
	ChunkPtr []int64
	// Width is the padded row length of each chunk: the nnz of its
	// longest row.
	Width []int32
	// Cols and Vals hold the padded element storage. Padding slots
	// carry value 0 and repeat the row's last real column (column 0 for
	// empty rows) so gathers stay in range and local.
	Cols []int32
	Vals []float64

	// Perm[k] is the original row stored at permuted position k;
	// InvPerm is its inverse. Both have length NRows.
	Perm, InvPerm []int32
	// RowLen[k] is the real (unpadded) nnz of permuted row k.
	RowLen []int32

	nnz  int
	Name string
}

// DefaultChunkHeight is the chunk height C used by the automatic
// conversion; it matches the 8-lane vector kernels (CSRVector8Range and
// SellCS8Range) standing in for wide SIMD.
const DefaultChunkHeight = 8

// DefaultSortWindowCap is the largest sorting window σ the automatic
// conversion uses: 512 chunks of DefaultChunkHeight rows per window —
// large enough that chunks are near-uniform after sorting, small
// enough that the permutation stays local and x-vector reuse survives.
const DefaultSortWindowCap = 4096

// DefaultSortWindow returns the sorting window σ for a matrix with n
// rows: the cap, clipped to the matrix.
func DefaultSortWindow(n int) int {
	if n < DefaultSortWindowCap {
		return max(n, 1)
	}
	return DefaultSortWindowCap
}

// windowSortPerm computes the SELL row permutation for m: row indices
// sorted by descending length inside each σ-window, stable within
// equal lengths so the conversion is deterministic. Both the
// conversion and the stats helper derive their layout from it, so the
// cost model always prices exactly the format the engine builds.
func windowSortPerm(m *matrix.CSR, sigma int) []int32 {
	n := m.NRows
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for w0 := 0; w0 < n; w0 += sigma {
		w1 := w0 + sigma
		if w1 > n {
			w1 = n
		}
		win := perm[w0:w1]
		sort.SliceStable(win, func(a, b int) bool {
			return m.RowNNZ(int(win[a])) > m.RowNNZ(int(win[b]))
		})
	}
	return perm
}

// chunkLayout groups the permuted row lengths into chunks of c rows
// and returns each chunk's width (its longest row) and the padded
// storage prefix (stride c per chunk, including a partial tail chunk).
func chunkLayout(lens []int32, c int) (widths []int32, chunkPtr []int64) {
	n := len(lens)
	nChunks := (n + c - 1) / c
	widths = make([]int32, nChunks)
	chunkPtr = make([]int64, nChunks+1)
	for k := 0; k < nChunks; k++ {
		var w int32
		for r := k * c; r < (k+1)*c && r < n; r++ {
			if lens[r] > w {
				w = lens[r]
			}
		}
		widths[k] = w
		chunkPtr[k+1] = chunkPtr[k] + int64(w)*int64(c)
	}
	return widths, chunkPtr
}

// sellGeometry validates the knobs and computes the shared layout
// inputs of ConvertSellCS and SellCSStats.
func sellGeometry(m *matrix.CSR, c, sigma int) (perm []int32, lens []int32, sigmaUsed int) {
	if c < 1 {
		panic(fmt.Sprintf("formats: SELL chunk height %d < 1", c))
	}
	if sigma < 1 {
		sigma = c
	}
	perm = windowSortPerm(m, sigma)
	lens = make([]int32, m.NRows)
	for k, orig := range perm {
		lens[k] = int32(m.RowNNZ(int(orig)))
	}
	return perm, lens, sigma
}

// ConvertSellCS converts m into SELL-C-σ form with the given chunk
// height and sorting window. The conversion is deterministic: equal-
// length rows keep their original relative order inside a window.
func ConvertSellCS(m *matrix.CSR, c, sigma int) *SellCS {
	perm, lens, sigma := sellGeometry(m, c, sigma)
	n := m.NRows
	s := &SellCS{
		NRows:   n,
		NCols:   m.NCols,
		C:       c,
		Sigma:   sigma,
		Perm:    perm,
		InvPerm: make([]int32, n),
		RowLen:  lens,
		nnz:     m.NNZ(),
		Name:    m.Name,
	}
	for k, orig := range s.Perm {
		s.InvPerm[orig] = int32(k)
	}
	s.Width, s.ChunkPtr = chunkLayout(lens, c)
	padded := s.ChunkPtr[len(s.Width)]
	s.Cols = make([]int32, padded)
	s.Vals = make([]float64, padded)

	// Fill, padding each row's tail with its last real column.
	for k := 0; k < n; k++ {
		orig := int(s.Perm[k])
		chunk := k / c
		r := k % c
		base := s.ChunkPtr[chunk] + int64(r)
		lo := m.RowPtr[orig]
		rl := int64(s.RowLen[k])
		var last int32
		for j := int64(0); j < rl; j++ {
			last = m.ColInd[lo+j]
			s.Cols[base+j*int64(c)] = last
			s.Vals[base+j*int64(c)] = m.Val[lo+j]
		}
		for j := rl; j < int64(s.Width[chunk]); j++ {
			s.Cols[base+j*int64(c)] = last
		}
	}
	return s
}

// ConvertSellCSAuto converts m with the default chunk height and
// sorting window.
func ConvertSellCSAuto(m *matrix.CSR) *SellCS {
	return ConvertSellCS(m, DefaultChunkHeight, DefaultSortWindow(m.NRows))
}

// NChunks returns the number of row chunks.
func (s *SellCS) NChunks() int { return len(s.Width) }

// NNZ returns the number of real (unpadded) stored elements.
func (s *SellCS) NNZ() int { return s.nnz }

// PaddedNNZ returns the stored element count including padding — the
// quantity the kernels actually stream.
func (s *SellCS) PaddedNNZ() int64 { return int64(len(s.Vals)) }

// PaddingRatio returns PaddedNNZ/NNZ (>= 1); the chunk-uniformity cost
// of the format, which the sorting window σ exists to shrink.
func (s *SellCS) PaddingRatio() float64 {
	if s.nnz == 0 {
		return 1
	}
	return float64(s.PaddedNNZ()) / float64(s.nnz)
}

// Bytes returns the memory footprint of the SELL-C-σ arrays: padded
// values and columns, chunk metadata, and the permutation tables the
// kernels scatter through.
func (s *SellCS) Bytes() int64 {
	return int64(len(s.Vals))*8 + int64(len(s.Cols))*4 +
		int64(len(s.ChunkPtr))*8 + int64(len(s.Width))*4 +
		int64(len(s.Perm))*4 + int64(len(s.InvPerm))*4 + int64(len(s.RowLen))*4
}

// Reassemble reconstructs the original CSR matrix exactly; it is the
// inverse of ConvertSellCS and the basis of the round-trip property
// tests. Column order within each row is preserved by the conversion,
// so the result is structurally identical to the input.
func (s *SellCS) Reassemble() *matrix.CSR {
	m := &matrix.CSR{
		NRows:  s.NRows,
		NCols:  s.NCols,
		RowPtr: make([]int64, s.NRows+1),
		ColInd: make([]int32, s.nnz),
		Val:    make([]float64, s.nnz),
		Name:   s.Name,
	}
	for i := 0; i < s.NRows; i++ {
		m.RowPtr[i+1] = m.RowPtr[i] + int64(s.RowLen[s.InvPerm[i]])
	}
	for i := 0; i < s.NRows; i++ {
		k := int(s.InvPerm[i])
		chunk := k / s.C
		base := s.ChunkPtr[chunk] + int64(k%s.C)
		out := m.RowPtr[i]
		for j := int64(0); j < int64(s.RowLen[k]); j++ {
			m.ColInd[out+j] = s.Cols[base+j*int64(s.C)]
			m.Val[out+j] = s.Vals[base+j*int64(s.C)]
		}
	}
	return m
}

// MulVec computes y = A*x sequentially from the SELL-C-σ form; y is in
// original row order (the kernel scatters through Perm).
func (s *SellCS) MulVec(x, y []float64) {
	if len(x) != s.NCols || len(y) != s.NRows {
		panic(fmt.Sprintf("formats: SellCS.MulVec dimension mismatch: x=%d y=%d for %dx%d",
			len(x), len(y), s.NRows, s.NCols))
	}
	if matrix.Aliased(x, y) {
		panic("formats: SellCS.MulVec input and output must not alias")
	}
	s.MulVecChunks(x, y, 0, s.NChunks())
}

// MulVecChunks computes the contribution of chunks [lo, hi): for every
// real row in those chunks it writes the full dot product to
// y[original row]. Chunks own disjoint row sets, so disjoint chunk
// ranges can run in parallel without synchronization.
//
//spmv:hotpath
func (s *SellCS) MulVecChunks(x, y []float64, lo, hi int) {
	SellCSChunks(s, &s.Vals, x, y, lo, hi)
}

// SellCSChunks is the chunk-row body of MulVecChunks over the value
// array *vals, laid out like s.Vals: s supplies only the geometry
// (C, ChunkPtr, RowLen, Cols, Perm), so a float32 instance runs on a
// structure whose f64 values are dropped.
//
//spmv:hotpath
func SellCSChunks[V Value](s *SellCS, vals *[]V, x, y []float64, lo, hi int) {
	// Locals, not s's fields, in the element loop: the compiler keeps
	// them in registers instead of reloading the headers per element.
	c, cols, vs := s.C, s.Cols, *vals
	for k := lo; k < hi; k++ {
		ptr := s.ChunkPtr[k]
		base := k * c
		for r, n := range s.RowLen[base:min(base+c, s.NRows)] {
			var sum float64
			p := ptr + int64(r)
			for ; n > 0; n-- {
				sum += float64(vs[p]) * x[cols[p]]
				p += int64(c)
			}
			y[s.Perm[base+r]] = sum
		}
	}
}

// SellCSStats computes the padded element count and chunk count of a
// SELL-C-σ conversion without materializing the padded arrays — the
// input the analytic cost model needs to price the format (padding is
// traffic and vector work; chunks are per-chunk overhead). It shares
// the permutation and layout computation with ConvertSellCS, so the
// two can never disagree about the geometry.
func SellCSStats(m *matrix.CSR, c, sigma int) (paddedNNZ int64, nChunks int) {
	_, lens, _ := sellGeometry(m, c, sigma)
	widths, chunkPtr := chunkLayout(lens, c)
	return chunkPtr[len(widths)], len(widths)
}
