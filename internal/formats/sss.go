package formats

import (
	"fmt"

	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// SSS is the Symmetric Sparse Skyline storage format: a symmetric
// matrix keeps only its strictly lower triangle in CSR form plus a
// dense diagonal array. SpMV reads each stored off-diagonal element
// once and applies it twice — y[i] += v*x[j] for the stored (i,j) and
// y[j] += v*x[i] for the implied mirror — so the dominant matrix
// stream (values + column indices) of a bandwidth-bound multiply is
// roughly halved. The price is the mirrored contribution's scatter
// into y[j], which may lie below the computing thread's row
// partition; the parallel engine sends those scatters to a per-thread
// conflict window (SymWindows) and folds the windows into y after the
// barrier.
type SSS struct {
	// N is the matrix dimension (SSS matrices are square).
	N int
	// Lower holds the strictly lower triangle (column < row) as an
	// ordinary N x N CSR matrix.
	Lower *matrix.CSR
	// Diag is the dense main diagonal; rows without a stored diagonal
	// entry hold 0.
	Diag []float64
	// HasDiag marks rows whose diagonal entry is actually stored in
	// the source matrix — Diag alone cannot distinguish a stored
	// explicit zero from an absent entry, and Reassemble must
	// reproduce the original exactly.
	HasDiag []bool

	Name string
}

// ConvertSSS builds the symmetric storage of m. The matrix must be
// exactly symmetric (matrix.DetectSymmetry == SymSymmetric): the
// upper triangle is discarded and reconstructed from the lower one,
// so any asymmetry would silently corrupt results — callers gate on
// the symmetry kind, and a violation here is a programming error.
//
// The check does not trust m.Sym, and it is the conversion's own
// pass: DetectSymmetry's cursor walk, run here. When the walk reaches
// row i, the entries before row i's cursor are exactly its lower
// part, already matched by the rows above, so the walk records each
// row's lower length and its diagonal as it goes and panics at the
// first mismatch. A second pass copies each row's lower part with one
// copy, reading only the lower triangle.
func ConvertSSS(m *matrix.CSR) *SSS {
	n := m.NRows
	asymmetric := func() {
		panic(fmt.Sprintf("formats: ConvertSSS on a non-symmetric matrix (%dx%d %q)",
			m.NRows, m.NCols, m.Name))
	}
	if n != m.NCols {
		asymmetric()
	}
	s := &SSS{
		N:       n,
		Diag:    make([]float64, n),
		HasDiag: make([]bool, n),
		Name:    m.Name,
	}
	lower := &matrix.CSR{NRows: n, NCols: n, RowPtr: make([]int64, n+1)}
	rp, ci, v := m.RowPtr, m.ColInd, m.Val
	next := make([]int64, n)
	copy(next, rp)
	for i := range n {
		lower.RowPtr[i+1] = lower.RowPtr[i] + next[i] - rp[i]
		prev := int32(i) - 1
		for p, end := next[i], rp[i+1]; p < end; p++ {
			c := ci[p]
			if c <= prev || int(c) >= n {
				asymmetric()
			}
			prev = c
			if int(c) == i {
				if v[p] != v[p] { // NaN equals no mirror, not even itself
					asymmetric()
				}
				s.Diag[i], s.HasDiag[i] = v[p], true
				continue
			}
			q := next[c]
			if q >= rp[c+1] || ci[q] != int32(i) || v[q] != v[p] {
				asymmetric()
			}
			next[c] = q + 1
		}
	}
	lower.ColInd = make([]int32, lower.RowPtr[n])
	lower.Val = make([]float64, lower.RowPtr[n])
	for i := range n {
		w, k := lower.RowPtr[i], lower.RowPtr[i+1]-lower.RowPtr[i]
		copy(lower.ColInd[w:], ci[rp[i]:rp[i]+k])
		copy(lower.Val[w:], v[rp[i]:rp[i]+k])
	}
	s.Lower = lower
	return s
}

// SymWindows returns each slot's conflict window for the parallel SSS
// kernel over the row partition parts of a symmetric matrix m: the
// rows [base, lo) below a slot's range [lo, hi) that its mirror
// scatters reach, with base the smallest strictly-lower column of rows
// [lo, hi) (an empty window, Lo == Hi, when none reaches below lo).
// m may be the assembled symmetric matrix or its SSS lower triangle:
// both have column-sorted rows (ConvertSSS admits only what
// DetectSymmetry proves symmetric, which needs sorted rows), so a
// row's first stored column is its smallest and both give the same
// windows. The native binding sizes its reduction scratch from these
// windows and the cost model prices the same cells.
func SymWindows(m *matrix.CSR, parts []sched.Range) []sched.Range {
	out := make([]sched.Range, len(parts))
	for t, r := range parts {
		base := r.Lo
		for i := r.Lo; i < r.Hi && base > 0; i++ {
			if j := m.RowPtr[i]; j < m.RowPtr[i+1] && int(m.ColInd[j]) < base {
				base = int(m.ColInd[j])
			}
		}
		out[t] = sched.Range{Lo: base, Hi: r.Lo}
	}
	return out
}

// NNZ returns the stored element count: lower-triangle entries plus
// stored diagonals — the compression the format exists for. The
// assembled matrix's logical nonzero count is FullNNZ.
func (s *SSS) NNZ() int {
	n := s.Lower.NNZ()
	for _, h := range s.HasDiag {
		if h {
			n++
		}
	}
	return n
}

// FullNNZ returns the assembled matrix's stored-element count:
// each off-diagonal element counts twice.
func (s *SSS) FullNNZ() int { return s.NNZ() + s.Lower.NNZ() }

// Bytes returns the memory footprint of the SSS arrays: the lower
// CSR plus 8 bytes per diagonal entry. This is the matrix stream the
// symmetric kernel reads per multiply — compare CSR.Bytes() of the
// assembled matrix for the saving.
func (s *SSS) Bytes() int64 {
	return s.Lower.Bytes() + int64(s.N)*8
}

// Reassemble reconstructs the full symmetric CSR matrix; inverse of
// ConvertSSS (exact: mirrored values are the stored bits).
func (s *SSS) Reassemble() *matrix.CSR {
	coo := matrix.NewCOO(s.N, s.N)
	for i := 0; i < s.N; i++ {
		if s.HasDiag[i] {
			coo.Add(i, i, s.Diag[i])
		}
		for j := s.Lower.RowPtr[i]; j < s.Lower.RowPtr[i+1]; j++ {
			c := int(s.Lower.ColInd[j])
			v := s.Lower.Val[j]
			coo.Add(i, c, v)
			coo.Add(c, i, v)
		}
	}
	m := coo.ToCSR()
	m.Name = s.Name
	m.Sym = matrix.SymSymmetric
	return m
}

// MulVec computes y = A*x sequentially from the symmetric storage —
// the correctness reference for the parallel SSS kernel. Each stored
// off-diagonal element contributes to two output rows. Rows without a
// stored diagonal entry contribute Diag[i]*x[i] = 0 exactly for
// finite x (the kernels assume finite inputs, as the SELL padding
// does).
func (s *SSS) MulVec(x, y []float64) {
	if len(x) != s.N || len(y) != s.N {
		panic(fmt.Sprintf("formats: SSS MulVec dimension mismatch: x=%d y=%d for n=%d",
			len(x), len(y), s.N))
	}
	if matrix.Aliased(x, y) {
		panic("formats: SSS MulVec input and output must not alias")
	}
	for i := 0; i < s.N; i++ {
		y[i] = s.Diag[i] * x[i]
	}
	L := s.Lower
	for i := 0; i < s.N; i++ {
		xi := x[i]
		var sum float64
		for j := L.RowPtr[i]; j < L.RowPtr[i+1]; j++ {
			c := L.ColInd[j]
			v := L.Val[j]
			sum += v * x[c]
			y[c] += v * xi
		}
		y[i] += sum
	}
}
