package formats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// symmetrize returns A + Aᵀ (duplicates summed), an exactly symmetric
// matrix with the structural character of the source family.
func symmetrize(m *matrix.CSR) *matrix.CSR {
	coo := matrix.NewCOO(m.NRows, m.NRows)
	for i := 0; i < m.NRows; i++ {
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			c := int(m.ColInd[j])
			if c >= m.NRows {
				continue
			}
			coo.Add(i, c, m.Val[j])
			if c != i {
				coo.Add(c, i, m.Val[j])
			}
		}
	}
	s := coo.ToCSR()
	s.Name = m.Name + "+T"
	return s
}

func TestConvertSSSRoundTrip(t *testing.T) {
	m := symmetrize(gen.UniformRandom(120, 5, 7))
	s := ConvertSSS(m)
	if got := s.Reassemble(); !got.Equal(m) {
		t.Fatal("SSS round trip changed the matrix")
	}
	if s.FullNNZ() != m.NNZ() {
		t.Fatalf("FullNNZ = %d, want %d", s.FullNNZ(), m.NNZ())
	}
	if s.NNZ() >= m.NNZ() {
		t.Fatalf("SSS stored %d elements, full matrix has %d — no compression", s.NNZ(), m.NNZ())
	}
	if s.Bytes() >= m.Bytes() {
		t.Fatalf("SSS bytes %d >= CSR bytes %d", s.Bytes(), m.Bytes())
	}
}

func TestConvertSSSKeepsExplicitZeroDiagonal(t *testing.T) {
	coo := matrix.NewCOO(3, 3)
	coo.Add(0, 0, 0) // explicit zero: must survive the round trip
	coo.Add(2, 1, 5)
	coo.Add(1, 2, 5)
	m := coo.ToCSR()
	s := ConvertSSS(m)
	if !s.HasDiag[0] || s.HasDiag[1] || s.HasDiag[2] {
		t.Fatalf("HasDiag = %v, want [true false false]", s.HasDiag)
	}
	if got := s.Reassemble(); !got.Equal(m) {
		t.Fatal("explicit zero diagonal lost in round trip")
	}
}

func TestConvertSSSPanicsOnAsymmetric(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ConvertSSS accepted an asymmetric matrix")
		}
	}()
	ConvertSSS(gen.UniformRandom(30, 3, 1))
}

func TestSSSMulVecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 17, 200} {
		m := symmetrize(gen.PowerLaw(n, 4, 1.8, n, int64(n)))
		s := ConvertSSS(m)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		m.MulVec(x, want)
		got := make([]float64, n)
		for i := range got {
			got[i] = math.NaN()
		}
		s.MulVec(x, got)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: y[%d] = %g, want %g", n, i, got[i], want[i])
			}
		}
	}
}

// convertSSSReference is the three-pass ConvertSSS the one-pass walk
// replaced: DetectSymmetry, a pass counting lower entries, a pass
// copying them. It is the oracle of TestConvertSSSMatchesReference.
func convertSSSReference(m *matrix.CSR) *SSS {
	if matrix.DetectSymmetry(m) != matrix.SymSymmetric {
		panic("not symmetric")
	}
	n := m.NRows
	s := &SSS{N: n, Diag: make([]float64, n), HasDiag: make([]bool, n), Name: m.Name}
	lower := &matrix.CSR{NRows: n, NCols: n, RowPtr: make([]int64, n+1)}
	var lowerNNZ int64
	for i := 0; i < n; i++ {
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			if int(m.ColInd[j]) < i {
				lowerNNZ++
			}
		}
	}
	lower.ColInd = make([]int32, 0, lowerNNZ)
	lower.Val = make([]float64, 0, lowerNNZ)
	for i := 0; i < n; i++ {
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			c := int(m.ColInd[j])
			switch {
			case c < i:
				lower.ColInd = append(lower.ColInd, m.ColInd[j])
				lower.Val = append(lower.Val, m.Val[j])
			case c == i:
				s.Diag[i] = m.Val[j]
				s.HasDiag[i] = true
			}
		}
		lower.RowPtr[i+1] = int64(len(lower.ColInd))
	}
	s.Lower = lower
	return s
}

// sssDiff describes the first difference between two conversions —
// the lower triangle's structure and value bits, the diagonal's bits
// and HasDiag — or returns "".
func sssDiff(a, b *SSS) string {
	la, lb := a.Lower, b.Lower
	switch {
	case a.N != b.N || la.NRows != lb.NRows || la.NCols != lb.NCols:
		return fmt.Sprintf("shape %d/%dx%d vs %d/%dx%d", a.N, la.NRows, la.NCols, b.N, lb.NRows, lb.NCols)
	case !slices.Equal(la.RowPtr, lb.RowPtr):
		return "lower RowPtr differs"
	case !slices.Equal(la.ColInd, lb.ColInd):
		return "lower ColInd differs"
	case !slices.Equal(bitsOf(la.Val), bitsOf(lb.Val)):
		return "lower Val bits differ"
	case !slices.Equal(bitsOf(a.Diag), bitsOf(b.Diag)):
		return "Diag bits differ"
	case !slices.Equal(a.HasDiag, b.HasDiag):
		return "HasDiag differs"
	}
	return ""
}

func bitsOf(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// convertOrPanic runs convert and reports whether it panicked.
func convertOrPanic(convert func(*matrix.CSR) *SSS, m *matrix.CSR) (s *SSS, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return convert(m), false
}

// TestConvertSSSMatchesReference: the one-pass conversion refuses
// exactly what the three-pass one refused and builds the same storage
// bit for bit, on every symmetric suite matrix and on symmetry
// detection's edge cases (signed zeros, NaN, dropped, moved and
// sign-flipped entries, unsorted and repeated columns, empty and
// rectangular shapes).
func TestConvertSSSMatchesReference(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	mirrored := func(n int, sign float64, es ...matrix.Entry) *matrix.CSR {
		coo := matrix.NewCOO(n, n)
		for _, e := range es {
			coo.Add(e.Row, e.Col, e.Val)
			if e.Row != e.Col {
				coo.Add(e.Col, e.Row, sign*e.Val)
			}
		}
		return coo.ToCSR()
	}
	lower := []matrix.Entry{{Row: 1, Col: 0, Val: 2}, {Row: 3, Col: 0, Val: -7}, {Row: 3, Col: 2, Val: 0.5}, {Row: 5, Col: 4, Val: 1e300}}
	diag := func(vs ...float64) []matrix.Entry {
		es := slices.Clone(lower)
		for i, v := range vs {
			es = append(es, matrix.Entry{Row: i, Col: i, Val: v})
		}
		return es
	}
	edit := func(m *matrix.CSR, f func(m *matrix.CSR)) *matrix.CSR { f(m); return m }
	rows := func(n int, cols [][]int32, vals [][]float64) *matrix.CSR {
		m := &matrix.CSR{NRows: n, NCols: n, RowPtr: make([]int64, n+1)}
		for i := range cols {
			m.ColInd = append(m.ColInd, cols[i]...)
			m.Val = append(m.Val, vals[i]...)
			m.RowPtr[i+1] = int64(len(m.ColInd))
		}
		return m
	}
	cases := map[string]*matrix.CSR{
		"symmetric":              mirrored(6, 1, diag(4, 5, 6, 7, 8, 9)...),
		"symmetric-signed-zeros": mirrored(6, 1, diag(0, negZero, 3)...),
		"mirror-signed-zero":     mirrored(3, 1, matrix.Entry{Row: 2, Col: 1, Val: 0}),
		"skew":                   mirrored(6, -1, lower...),
		"nan-diagonal":           mirrored(6, 1, diag(1, nan)...),
		"nan-off-diagonal":       mirrored(6, 1, matrix.Entry{Row: 2, Col: 1, Val: nan}),
		"all-zero":               mirrored(6, 1, matrix.Entry{Row: 1, Col: 0, Val: 0}, matrix.Entry{Row: 4, Col: 1, Val: negZero}),
		"diagonal-only":          mirrored(4, 1, diag(1, 2, 3, 4)[len(lower):]...),
		"empty-rows":             mirrored(40, 1, matrix.Entry{Row: 30, Col: 3, Val: 1}, matrix.Entry{Row: 39, Col: 0, Val: 2}),
		"no-entries":             matrix.NewCOO(7, 7).ToCSR(),
		"zero-by-zero":           matrix.NewCOO(0, 0).ToCSR(),
		"zero-by-zero-nil":       {},
		"rectangular":            matrix.NewCOO(3, 4).ToCSR(),
		"entry-moved": edit(mirrored(6, 1, lower...), func(m *matrix.CSR) {
			m.ColInd[m.RowPtr[3]+1] = 1
		}),
		"sign-flipped": edit(mirrored(6, 1, lower...), func(m *matrix.CSR) {
			m.Val[m.RowPtr[5]] = -m.Val[m.RowPtr[5]]
		}),
		"last-entry-changed": edit(mirrored(6, 1, lower...), func(m *matrix.CSR) {
			m.Val[len(m.Val)-1]++
		}),
		"upper-entry-dropped": rows(2, [][]int32{{}, {0}}, [][]float64{{}, {1}}),
		"lower-entry-dropped": rows(2, [][]int32{{1}, {}}, [][]float64{{1}, {}}),
		"unsorted-row":        rows(2, [][]int32{{1, 0}, {0, 1}}, [][]float64{{3, 1}, {3, 1}}),
		"repeated-column":     rows(2, [][]int32{{1, 1}, {0, 0}}, [][]float64{{2, 3}, {2, 3}}),
		"column-negative":     rows(2, [][]int32{{-1}, {1}}, [][]float64{{1}, {1}}),
		"column-past-n":       rows(2, [][]int32{{0}, {2}}, [][]float64{{1}, {1}}),
	}
	for _, r := range suite.Symmetric() {
		cases[r.Name] = r.Build(0.05)
	}
	refused, built := 0, 0
	for name, m := range cases {
		want, wantPanic := convertOrPanic(convertSSSReference, m)
		got, gotPanic := convertOrPanic(ConvertSSS, m)
		switch {
		case gotPanic != wantPanic:
			t.Errorf("%s: ConvertSSS panicked %v, reference %v", name, gotPanic, wantPanic)
		case gotPanic:
			refused++
		default:
			built++
			if d := sssDiff(got, want); d != "" {
				t.Errorf("%s: %s", name, d)
			}
		}
	}
	if refused == 0 || built == 0 {
		t.Fatalf("cases refused %d, built %d: both kinds must occur", refused, built)
	}
}

// BenchmarkConvertSSS times one checked conversion of the two solve
// matrices at their benchmark scales.
func BenchmarkConvertSSS(b *testing.B) {
	for _, bm := range []struct {
		name  string
		scale float64
	}{{"lap3d", 1}, {"lap2d", 0.25}} {
		b.Run(bm.name, func(b *testing.B) {
			m := suite.ByName(bm.name, bm.scale)
			for b.Loop() {
				ConvertSSS(m)
			}
		})
	}
}
