package matrix

// Native Go fuzz target for symmetry detection: the cursor walk must
// classify every canonical CSR (and every CSR with one row left
// unsorted) exactly as the transpose-based reference does.

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzVals are the values fuzz entries draw from: a small set, so
// mirrored entries often match or negate each other, holding the
// cases that split the kinds (signed zeros, NaN, infinities).
var fuzzVals = []float64{0, math.Copysign(0, -1), 1, -1, 2, -2, 0.5,
	math.NaN(), math.Inf(1), math.Inf(-1), 5e-324}

// fuzzCSR decodes data into a CSR of at most 8 rows. data[0] is the
// order; data[1] holds the mode: bits 0-1 mirror each entry as
// symmetric (1) or skew (2), bit 2 adds a column (rectangular), bit 3
// swaps the first two entries of the first row holding two. Each
// following byte triple is one (row, column, value) entry.
func fuzzCSR(data []byte) *CSR {
	if len(data) < 2 {
		return NewCOO(0, 0).ToCSR()
	}
	n, mode := int(data[0]%9), data[1]
	cols := n
	if mode&4 != 0 {
		cols++
	}
	coo := NewCOO(n, cols)
	for e := data[2:]; n > 0 && len(e) >= 3; e = e[3:] {
		r, c, v := int(e[0])%n, int(e[1])%n, fuzzVals[int(e[2])%len(fuzzVals)]
		coo.Add(r, c, v)
		if sign := mode & 3; r != c && (sign == 1 || sign == 2) {
			coo.Add(c, r, v*float64(3-2*int(sign)))
		}
	}
	m := coo.ToCSR()
	if mode&8 != 0 {
		for i := range n {
			if p := m.RowPtr[i]; m.RowPtr[i+1]-p >= 2 {
				m.ColInd[p], m.ColInd[p+1] = m.ColInd[p+1], m.ColInd[p]
				m.Val[p], m.Val[p+1] = m.Val[p+1], m.Val[p]
				break
			}
		}
	}
	return m
}

func FuzzDetectSymmetry(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 0, 2, 0, 0, 4, 2, 2, 6})
	f.Add([]byte{4, 2, 1, 0, 2, 3, 1, 7, 2, 2, 1})
	f.Add([]byte{4, 2, 1, 0, 2, 3, 3, 0})
	f.Add([]byte{5, 9, 1, 0, 2, 4, 2, 3, 4, 4, 2})
	f.Add([]byte{2, 4, 1, 0, 2, 0, 1, 2})
	f.Add([]byte{6, 0, 1, 0, 2, 0, 1, 2, 5, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip()
		}
		m := fuzzCSR(data)
		if got, want := DetectSymmetry(m), detectSymmetryReference(m); got != want {
			t.Fatalf("DetectSymmetry = %v, reference %v on %dx%d rowptr %v cols %v vals %v",
				got, want, m.NRows, m.NCols, m.RowPtr, m.ColInd, m.Val)
		}
	})
}

// FuzzFingerprint checks the unrolled four-lane hash against
// fingerprintV2Reference on arbitrary arrays: data[0] picks the
// symmetry kind and data[1] the row-pointer count; the next 8 bytes
// per row pointer and then 4 bytes per column index are read as
// little-endian words, so values of every width and sign occur. The
// hash never validates the CSR, so neither does the fuzzer.
func FuzzFingerprint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(make([]byte, 200))
	f.Add([]byte{2, 9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := &CSR{Sym: SymGeneral}
		if len(data) >= 2 {
			m.Sym = Symmetry(1 + int(data[0])%3)
			nr := int(data[1]) % 40
			data = data[2:]
			m.RowPtr = make([]int64, nr)
			for i := range m.RowPtr {
				var w [8]byte
				data = data[copy(w[:], data):]
				m.RowPtr[i] = int64(binary.LittleEndian.Uint64(w[:]))
			}
			for ; len(data) >= 4; data = data[4:] {
				m.ColInd = append(m.ColInd, int32(binary.LittleEndian.Uint32(data)))
			}
			m.NRows, m.NCols = max(nr-1, 0), len(m.ColInd)
		}
		if got, want := fingerprintV2(m), fingerprintV2Reference(m); got != want {
			t.Fatalf("rowptr %v colind %v: lanes %#x, reference %#x", m.RowPtr, m.ColInd, got, want)
		}
	})
}
