package matrix

// Symmetry classifies a square matrix's relation to its transpose.
// The kind rides on the CSR through parsing and conversion so the
// formats and the tuner can exploit it: a symmetric matrix stores only
// its lower triangle + diagonal in SSS form, halving the dominant
// matrix stream of a bandwidth-bound SpMV.
type Symmetry uint8

const (
	// SymUnknown means the relation has not been established: matrices
	// assembled programmatically start here, and SymmetryKind detects
	// on demand. It is the zero value on purpose — an unannotated CSR
	// claims nothing.
	SymUnknown Symmetry = iota
	// SymGeneral is a matrix with no exploitable transpose relation
	// (including every non-square matrix).
	SymGeneral
	// SymSymmetric means A == Aᵀ exactly (structure and values).
	SymSymmetric
	// SymSkew means A == -Aᵀ exactly; any stored diagonal entries are
	// explicit zeros.
	SymSkew
)

// String names the kind with the Matrix Market vocabulary.
func (s Symmetry) String() string {
	switch s {
	case SymGeneral:
		return "general"
	case SymSymmetric:
		return "symmetric"
	case SymSkew:
		return "skew-symmetric"
	default:
		return "unknown"
	}
}

// DetectSymmetry classifies m against its transpose in O(NNZ): the
// entry point for programmatically built matrices, whose assembly path
// (COO, generators) cannot annotate symmetry the way the Matrix Market
// parser does. Equality is exact — structure and bit-identical values —
// because the symmetric storage path reconstructs the mirrored half
// from the lower triangle and must round-trip without drift. A matrix
// that satisfies both relations (all stored values zero) reports
// SymSymmetric.
//
// It builds no transpose. One pass over the rows keeps a cursor per
// row at that row's next unmatched lower entry: each upper entry (i,c)
// must meet the entry (c,i) at row c's cursor, and by the time row i
// is reached every lower entry of row i must have been met. Rows are
// walked in order, so the cursors advance in column order. The pass
// stops at the first mismatch. A row whose columns are not strictly
// increasing, or leave [0,n), is reported SymGeneral: the symmetric
// storage path needs canonical rows. The n cursors are the only
// allocation.
func DetectSymmetry(m *CSR) Symmetry {
	n := m.NRows
	if n != m.NCols {
		return SymGeneral
	}
	rp, ci, v := m.RowPtr, m.ColInd, m.Val
	next := make([]int64, n)
	copy(next, rp)
	sym, skew := true, true
	for i := range n {
		// Entries before next[i] are row i's lower entries, met in
		// increasing column order by rows above; the rest must lie on
		// or above the diagonal.
		prev := int32(i) - 1
		for p, end := next[i], rp[i+1]; p < end; p++ {
			c := ci[p]
			if c <= prev || int(c) >= n {
				return SymGeneral
			}
			prev = c
			a := v[p]
			b := a
			if int(c) != i {
				q := next[c]
				if q >= rp[c+1] || ci[q] != int32(i) {
					return SymGeneral
				}
				next[c] = q + 1
				b = v[q]
			}
			sym = sym && a == b
			skew = skew && a == -b
			if !sym && !skew {
				return SymGeneral
			}
		}
	}
	if sym {
		return SymSymmetric
	}
	return SymSkew
}

// SymmetryKind returns the matrix's symmetry kind, running
// DetectSymmetry once and caching the answer when the kind is still
// SymUnknown. The cache write makes this unsafe to call concurrently
// with itself or with reads of Sym; resolve the kind before sharing
// the matrix across goroutines (the facade does so at Tune time).
func (m *CSR) SymmetryKind() Symmetry {
	if m.Sym == SymUnknown {
		m.Sym = DetectSymmetry(m)
	}
	return m.Sym
}
