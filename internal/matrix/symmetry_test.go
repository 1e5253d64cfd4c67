package matrix

import (
	"math"
	"testing"
)

// detectSymmetryReference is the transpose-based DetectSymmetry the
// cursor walk replaced: build Aᵀ, then compare structure and values
// entry by entry. It is the oracle for every input whose rows hold no
// repeated column (on repeated columns it can report a symmetric kind
// the cursor walk refuses).
func detectSymmetryReference(m *CSR) Symmetry {
	if m.NRows != m.NCols {
		return SymGeneral
	}
	t := m.Transpose()
	for i := range m.RowPtr {
		if m.RowPtr[i] != t.RowPtr[i] {
			return SymGeneral
		}
	}
	sym, skew := true, true
	for p := range m.ColInd {
		if m.ColInd[p] != t.ColInd[p] {
			return SymGeneral
		}
		if m.Val[p] != t.Val[p] {
			sym = false
		}
		if m.Val[p] != -t.Val[p] {
			skew = false
		}
		if !sym && !skew {
			return SymGeneral
		}
	}
	if sym {
		return SymSymmetric
	}
	return SymSkew
}

// sym3 builds a 3x3 symmetric matrix with an explicit diagonal.
func sym3() *CSR {
	coo := NewCOO(3, 3)
	coo.Add(0, 0, 4)
	coo.Add(1, 1, 5)
	coo.Add(2, 2, 6)
	coo.Add(1, 0, 2)
	coo.Add(0, 1, 2)
	coo.Add(2, 1, -3)
	coo.Add(1, 2, -3)
	return coo.ToCSR()
}

func TestDetectSymmetrySymmetric(t *testing.T) {
	if got := DetectSymmetry(sym3()); got != SymSymmetric {
		t.Fatalf("DetectSymmetry = %v, want symmetric", got)
	}
}

func TestDetectSymmetrySkew(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Add(1, 0, 2)
	coo.Add(0, 1, -2)
	coo.Add(2, 0, -7)
	coo.Add(0, 2, 7)
	if got := DetectSymmetry(coo.ToCSR()); got != SymSkew {
		t.Fatalf("DetectSymmetry = %v, want skew", got)
	}
}

func TestDetectSymmetryGeneral(t *testing.T) {
	cases := map[string]func() *CSR{
		"values-differ": func() *CSR {
			coo := NewCOO(2, 2)
			coo.Add(0, 1, 1)
			coo.Add(1, 0, 2)
			return coo.ToCSR()
		},
		"structure-differs": func() *CSR {
			coo := NewCOO(2, 2)
			coo.Add(0, 1, 1)
			return coo.ToCSR()
		},
		"rectangular": func() *CSR {
			coo := NewCOO(2, 3)
			coo.Add(0, 1, 1)
			coo.Add(1, 0, 1)
			return coo.ToCSR()
		},
		"skew-with-nonzero-diagonal": func() *CSR {
			coo := NewCOO(2, 2)
			coo.Add(0, 1, 2)
			coo.Add(1, 0, -2)
			coo.Add(0, 0, 1)
			return coo.ToCSR()
		},
	}
	for name, build := range cases {
		if got := DetectSymmetry(build()); got != SymGeneral {
			t.Errorf("%s: DetectSymmetry = %v, want general", name, got)
		}
	}
}

func TestDetectSymmetryAllZeroValuesPrefersSymmetric(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 0)
	coo.Add(1, 0, 0)
	if got := DetectSymmetry(coo.ToCSR()); got != SymSymmetric {
		t.Fatalf("DetectSymmetry = %v, want symmetric for all-zero values", got)
	}
}

func TestSymmetryKindCachesAndCloneCarries(t *testing.T) {
	m := sym3()
	if m.Sym != SymUnknown {
		t.Fatalf("fresh CSR Sym = %v, want unknown", m.Sym)
	}
	if got := m.SymmetryKind(); got != SymSymmetric {
		t.Fatalf("SymmetryKind = %v, want symmetric", got)
	}
	if m.Sym != SymSymmetric {
		t.Fatal("SymmetryKind did not cache")
	}
	if c := m.Clone(); c.Sym != SymSymmetric {
		t.Fatalf("Clone dropped symmetry kind: %v", c.Sym)
	}
}

// csrOf builds a CSR from explicit rows, bypassing COO so tests can
// hand it unsorted or repeated columns.
func csrOf(n int, rows [][]int32, vals [][]float64) *CSR {
	m := &CSR{NRows: n, NCols: n, RowPtr: make([]int64, n+1)}
	for i := range rows {
		m.ColInd = append(m.ColInd, rows[i]...)
		m.Val = append(m.Val, vals[i]...)
		m.RowPtr[i+1] = int64(len(m.ColInd))
	}
	return m
}

// dropEntry returns m without its (row, col) entry.
func dropEntry(m *CSR, row, col int) *CSR {
	coo := NewCOO(m.NRows, m.NCols)
	for i := range m.NRows {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if i != row || int(m.ColInd[p]) != col {
				coo.Add(i, int(m.ColInd[p]), m.Val[p])
			}
		}
	}
	if coo.NNZ() != m.NNZ()-1 {
		panic("dropEntry: no such entry")
	}
	return coo.ToCSR()
}

// TestDetectSymmetryMatchesReference compares the cursor walk with the
// transpose-based reference on the kinds' edge cases.
func TestDetectSymmetryMatchesReference(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	// mirrored builds an n×n matrix from lower-triangle entries
	// (r >= c), adding each off-diagonal entry's mirror scaled by sign.
	mirrored := func(n int, sign float64, es ...Entry) *CSR {
		coo := NewCOO(n, n)
		for _, e := range es {
			coo.Add(e.Row, e.Col, e.Val)
			if e.Row != e.Col {
				coo.Add(e.Col, e.Row, sign*e.Val)
			}
		}
		return coo.ToCSR()
	}
	lower := []Entry{{1, 0, 2}, {3, 0, -7}, {3, 2, 0.5}, {5, 4, 1e300}}
	diag := func(vs ...float64) []Entry {
		es := append([]Entry(nil), lower...)
		for i, v := range vs {
			es = append(es, Entry{i, i, v})
		}
		return es
	}
	edit := func(m *CSR, f func(m *CSR)) *CSR { f(m); return m }
	cases := map[string]*CSR{
		"symmetric":               mirrored(6, 1, diag(4, 5, 6, 7, 8, 9)...),
		"symmetric-signed-zeros":  mirrored(6, 1, diag(0, negZero, 3)...),
		"skew":                    mirrored(6, -1, lower...),
		"skew-signed-zero-diag":   mirrored(6, -1, diag(negZero, 0, negZero)...),
		"skew-nonzero-diag":       mirrored(6, -1, diag(0, 1)...),
		"nan-diagonal":            mirrored(6, 1, diag(1, nan)...),
		"nan-off-diagonal":        mirrored(6, 1, Entry{2, 1, nan}),
		"nan-off-diagonal-skew":   mirrored(6, -1, Entry{2, 1, nan}),
		"all-zero":                mirrored(6, 1, Entry{1, 0, 0}, Entry{2, 2, 0}, Entry{4, 1, negZero}),
		"all-zero-mixed-sign":     mirrored(6, -1, Entry{1, 0, 0}, Entry{4, 1, negZero}),
		"diagonal-only":           mirrored(4, 1, diag(1, 2, 3, 4)[len(lower):]...),
		"empty-rows":              mirrored(40, 1, Entry{30, 3, 1}, Entry{39, 0, 2}),
		"no-entries":              NewCOO(7, 7).ToCSR(),
		"zero-by-zero":            NewCOO(0, 0).ToCSR(),
		"zero-by-zero-nil-rowptr": {},
		"rectangular": func() *CSR {
			coo := NewCOO(3, 4)
			coo.Add(1, 0, 1)
			coo.Add(0, 1, 1)
			return coo.ToCSR()
		}(),
		"rectangular-empty": NewCOO(0, 3).ToCSR(),
		"entry-moved": edit(mirrored(6, 1, lower...), func(m *CSR) {
			m.ColInd[m.RowPtr[3]+1] = 1 // (3,2) -> (3,1): row stays sorted
		}),
		"upper-entry-dropped":    dropEntry(mirrored(6, 1, lower...), 0, 3),
		"lower-entry-dropped":    dropEntry(mirrored(6, 1, lower...), 3, 0),
		"last-row-entry-dropped": dropEntry(mirrored(6, -1, lower...), 5, 4),
		"sign-flipped": edit(mirrored(6, 1, lower...), func(m *CSR) {
			m.Val[m.RowPtr[5]] = -m.Val[m.RowPtr[5]]
		}),
		"skew-sign-flipped": edit(mirrored(6, -1, lower...), func(m *CSR) {
			m.Val[0] = -m.Val[0]
		}),
		"unsorted-row": csrOf(2,
			[][]int32{{1, 0}, {0, 1}}, [][]float64{{3, 1}, {3, 1}}),
	}
	for name, m := range cases {
		want := detectSymmetryReference(m)
		if got := DetectSymmetry(m); got != want {
			t.Errorf("%s: DetectSymmetry = %v, reference %v", name, got, want)
		}
	}
	// The cases above must cover every kind, or a walk that always
	// answered one kind could pass.
	seen := map[Symmetry]bool{}
	for _, m := range cases {
		seen[detectSymmetryReference(m)] = true
	}
	for _, k := range []Symmetry{SymGeneral, SymSymmetric, SymSkew} {
		if !seen[k] {
			t.Errorf("no case is %v", k)
		}
	}
}

// TestDetectSymmetryRefusesRepeatedColumns pins the one input class on
// which the walk and the transpose reference part: a row listing a
// column twice. Its mirrored form equals its own transpose entry by
// entry, but it is not a canonical CSR, and SSS storage would count
// the repeated entry once per copy.
func TestDetectSymmetryRefusesRepeatedColumns(t *testing.T) {
	m := csrOf(2, [][]int32{{1, 1}, {0, 0}}, [][]float64{{2, 3}, {2, 3}})
	if got := DetectSymmetry(m); got != SymGeneral {
		t.Fatalf("DetectSymmetry = %v, want general", got)
	}
	if ref := detectSymmetryReference(m); ref != SymSymmetric {
		t.Fatalf("reference = %v; the two no longer part here", ref)
	}
}

// TestDetectSymmetryOutOfRangeColumn: a column outside [0,n) is not a
// valid structure and reads as general instead of indexing past the
// cursors.
func TestDetectSymmetryOutOfRangeColumn(t *testing.T) {
	for _, c := range []int32{-1, 2, math.MaxInt32} {
		m := csrOf(2, [][]int32{{0}, {c}}, [][]float64{{1}, {1}})
		if got := DetectSymmetry(m); got != SymGeneral {
			t.Errorf("column %d: DetectSymmetry = %v, want general", c, got)
		}
	}
}

// TestDetectSymmetryAllocatesOnlyCursors: the walk allocates its n
// cursors and nothing else, where the transpose took four slices.
func TestDetectSymmetryAllocatesOnlyCursors(t *testing.T) {
	coo := NewCOO(500, 500)
	for i := range 500 {
		coo.Add(i, i, 4)
		if i > 0 {
			coo.Add(i, i-1, -1)
			coo.Add(i-1, i, -1)
		}
	}
	m := coo.ToCSR()
	var got Symmetry
	if avg := testing.AllocsPerRun(20, func() { got = DetectSymmetry(m) }); avg > 1 {
		t.Fatalf("DetectSymmetry made %v allocations, want at most 1", avg)
	}
	if got != SymSymmetric {
		t.Fatalf("DetectSymmetry = %v, want symmetric", got)
	}
}
