// Package matrix provides the sparse matrix representations used by the
// SpMV tuner: a coordinate-format builder (COO), the canonical
// Compressed Sparse Row format (CSR, Section II of the paper), and a
// small dense matrix for reference computations. All structures use
// 0-based indices and int32 column indices as in common CSR
// implementations. This package stores values as float64 — the
// full-precision source of truth every other representation converts
// from — but executable storage is not always double precision: under
// an accuracy budget the planner may re-encode the value stream as f32
// (internal/formats' Prec* types) when every value fits float32;
// accumulation stays float64 everywhere.
package matrix

import (
	"errors"
	"fmt"
	"sort"
)

// Entry is one nonzero element in coordinate form.
type Entry struct {
	Row, Col int
	Val      float64
}

// COO is an order-insensitive builder for sparse matrices. Duplicate
// (row, col) entries are summed when converting to CSR, matching Matrix
// Market assembly semantics.
type COO struct {
	Rows, Cols int
	Entries    []Entry
}

// NewCOO returns an empty COO builder with the given dimensions.
func NewCOO(rows, cols int) *COO {
	return &COO{Rows: rows, Cols: cols}
}

// Add appends one nonzero. Out-of-range coordinates panic: they are
// programming errors in generators, not recoverable input errors.
func (c *COO) Add(row, col int, val float64) {
	if row < 0 || row >= c.Rows || col < 0 || col >= c.Cols {
		panic(fmt.Sprintf("matrix: entry (%d,%d) outside %dx%d", row, col, c.Rows, c.Cols))
	}
	c.Entries = append(c.Entries, Entry{Row: row, Col: col, Val: val})
}

// NNZ returns the number of accumulated entries (before duplicate
// summation).
func (c *COO) NNZ() int { return len(c.Entries) }

// ToCSR converts the builder into a canonical CSR matrix: entries
// sorted by (row, col), duplicates summed, explicit zeros kept (they
// still cost storage and bandwidth, which is what the tuner models).
// Conversion uses a counting sort by row followed by per-row column
// sorts, so suite-scale matrices (millions of entries) convert in
// linear-ish time.
func (c *COO) ToCSR() *CSR {
	n := len(c.Entries)
	// Bucket entries by row.
	counts := make([]int64, c.Rows+1)
	for _, e := range c.Entries {
		counts[e.Row+1]++
	}
	for i := 0; i < c.Rows; i++ {
		counts[i+1] += counts[i]
	}
	cols := make([]int32, n)
	vals := make([]float64, n)
	next := append([]int64(nil), counts...)
	for _, e := range c.Entries {
		p := next[e.Row]
		next[e.Row]++
		cols[p] = int32(e.Col)
		vals[p] = e.Val
	}
	// Sort each row by column and sum duplicates, compacting in place.
	m := &CSR{
		NRows:  c.Rows,
		NCols:  c.Cols,
		RowPtr: make([]int64, c.Rows+1),
	}
	w := int64(0)
	for i := 0; i < c.Rows; i++ {
		lo, hi := counts[i], counts[i+1]
		row := rowView{cols: cols[lo:hi], vals: vals[lo:hi]}
		SortRow(row.cols, row.vals)
		for k := 0; k < row.Len(); k++ {
			if rw := w; rw > m.RowPtr[i] && cols[rw-1] == row.cols[k] {
				vals[rw-1] += row.vals[k]
				continue
			}
			cols[w] = row.cols[k]
			vals[w] = row.vals[k]
			w++
		}
		m.RowPtr[i+1] = w
	}
	m.ColInd = append([]int32(nil), cols[:w]...)
	m.Val = append([]float64(nil), vals[:w]...)
	return m
}

// SortRow sorts one row's columns and values together by column. The
// order it leaves duplicate columns in is fixed by the input order, so
// builders that sum duplicates after it agree bit for bit.
func SortRow(cols []int32, vals []float64) { sort.Sort(rowView{cols, vals}) }

// rowView sorts one row's columns and values together.
type rowView struct {
	cols []int32
	vals []float64
}

func (r rowView) Len() int           { return len(r.cols) }
func (r rowView) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r rowView) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// CSR is the Compressed Sparse Row storage format (Fig 2 of the paper):
// RowPtr indexes the start of each row inside ColInd/Val.
type CSR struct {
	NRows, NCols int
	RowPtr       []int64   // length NRows+1
	ColInd       []int32   // length NNZ
	Val          []float64 // length NNZ

	// Name optionally identifies the matrix (suite matrices carry the
	// paper's matrix names).
	Name string

	// Sym records the matrix's symmetry kind so downstream layers
	// (formats, tuner, writer) can exploit it without rescanning. The
	// Matrix Market parser annotates it from the file header;
	// programmatic builders leave it SymUnknown and SymmetryKind
	// detects on demand.
	Sym Symmetry
}

// NNZ returns the number of stored elements.
func (m *CSR) NNZ() int { return len(m.Val) }

// RowNNZ returns the number of stored elements in row i.
func (m *CSR) RowNNZ(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// Flops returns the floating point operations of one SpMV with this
// matrix: 2*NNZ (one multiply and one add per stored element).
func (m *CSR) Flops() float64 { return 2 * float64(m.NNZ()) }

// Validate checks the CSR structural invariants: monotone row pointers
// covering exactly NNZ entries, in-range column indices, and
// column-sorted rows. It returns a descriptive error for the first
// violation found.
func (m *CSR) Validate() error {
	if m.NRows < 0 || m.NCols < 0 {
		return fmt.Errorf("matrix: negative dimensions %dx%d", m.NRows, m.NCols)
	}
	if len(m.RowPtr) != m.NRows+1 {
		return fmt.Errorf("matrix: rowptr length %d, want %d", len(m.RowPtr), m.NRows+1)
	}
	if m.RowPtr[0] != 0 {
		return errors.New("matrix: rowptr[0] != 0")
	}
	if len(m.ColInd) != len(m.Val) {
		return fmt.Errorf("matrix: colind length %d != val length %d", len(m.ColInd), len(m.Val))
	}
	if got, want := m.RowPtr[m.NRows], int64(len(m.Val)); got != want {
		return fmt.Errorf("matrix: rowptr[n]=%d, want nnz=%d", got, want)
	}
	for i := 0; i < m.NRows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("matrix: rowptr not monotone at row %d", i)
		}
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			c := m.ColInd[j]
			if c < 0 || int(c) >= m.NCols {
				return fmt.Errorf("matrix: row %d has column %d outside [0,%d)", i, c, m.NCols)
			}
			if j > m.RowPtr[i] && m.ColInd[j-1] >= c {
				return fmt.Errorf("matrix: row %d columns not strictly increasing at position %d", i, j)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of m.
func (m *CSR) Clone() *CSR {
	return &CSR{
		NRows:  m.NRows,
		NCols:  m.NCols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		ColInd: append([]int32(nil), m.ColInd...),
		Val:    append([]float64(nil), m.Val...),
		Name:   m.Name,
		Sym:    m.Sym,
	}
}

// Equal reports whether m and o have identical structure and values.
func (m *CSR) Equal(o *CSR) bool {
	if m.NRows != o.NRows || m.NCols != o.NCols || m.NNZ() != o.NNZ() {
		return false
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != o.RowPtr[i] {
			return false
		}
	}
	for i := range m.ColInd {
		if m.ColInd[i] != o.ColInd[i] || m.Val[i] != o.Val[i] {
			return false
		}
	}
	return true
}

// Transpose returns the transpose of m as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		NRows:  m.NCols,
		NCols:  m.NRows,
		RowPtr: make([]int64, m.NCols+1),
		ColInd: make([]int32, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
		Name:   m.Name,
	}
	for _, c := range m.ColInd {
		t.RowPtr[c+1]++
	}
	for i := 0; i < t.NRows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int64(nil), t.RowPtr...)
	for i := 0; i < m.NRows; i++ {
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			c := m.ColInd[j]
			p := next[c]
			next[c]++
			t.ColInd[p] = int32(i)
			t.Val[p] = m.Val[j]
		}
	}
	return t
}

// ToDense materializes m as a dense matrix; intended for tests on small
// matrices only.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.NRows, m.NCols)
	for i := 0; i < m.NRows; i++ {
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			d.Set(i, int(m.ColInd[j]), m.Val[j])
		}
	}
	return d
}

// RowLengths returns nnz_i for every row (Table I statistics input).
func (m *CSR) RowLengths() []int {
	ls := make([]int, m.NRows)
	for i := range ls {
		ls[i] = m.RowNNZ(i)
	}
	return ls
}

// Bytes returns the memory footprint of the CSR arrays in bytes:
// 8 bytes per value, 4 per column index, 8 per row pointer. This is
// S_CSR in the paper's traffic bounds.
func (m *CSR) Bytes() int64 {
	return int64(m.NNZ())*(8+4) + int64(len(m.RowPtr))*8
}

// MulVec computes y = A*x sequentially; it is the correctness reference
// for every optimized kernel. len(x) must be NCols and len(y) NRows.
// x and y must not alias: y[i] is written while x is still being
// gathered, so an aliased call would silently read partially
// overwritten input.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.NCols || len(y) != m.NRows {
		panic(fmt.Sprintf("matrix: MulVec dimension mismatch: x=%d y=%d for %dx%d",
			len(x), len(y), m.NRows, m.NCols))
	}
	if Aliased(x, y) {
		panic("matrix: MulVec input and output must not alias")
	}
	for i := 0; i < m.NRows; i++ {
		var sum float64
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			sum += m.Val[j] * x[m.ColInd[j]]
		}
		y[i] = sum
	}
}

// Dense is a row-major dense matrix used as a correctness oracle in
// tests and for tiny reference workloads.
type Dense struct {
	NRows, NCols int
	Data         []float64
}

// NewDense returns a zeroed rows x cols dense matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{NRows: rows, NCols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.NCols+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.NCols+j] = v }

// MulVec computes y = D*x densely. x and y must not alias: y[i] is
// written while later rows still read all of x.
func (d *Dense) MulVec(x, y []float64) {
	if Aliased(x, y) {
		panic("matrix: Dense.MulVec input and output must not alias")
	}
	for i := 0; i < d.NRows; i++ {
		var sum float64
		row := d.Data[i*d.NCols : (i+1)*d.NCols]
		for j, v := range row {
			sum += v * x[j]
		}
		y[i] = sum
	}
}

// ToCSR converts the dense matrix to CSR, dropping exact zeros.
func (d *Dense) ToCSR() *CSR {
	coo := NewCOO(d.NRows, d.NCols)
	for i := 0; i < d.NRows; i++ {
		for j := 0; j < d.NCols; j++ {
			if v := d.At(i, j); v != 0 {
				coo.Add(i, j, v)
			}
		}
	}
	return coo.ToCSR()
}
