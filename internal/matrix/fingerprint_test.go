package matrix

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
	"regexp"
	"strings"
	"testing"
)

// fpMatrix builds a small CSR directly so tests control structure and
// values independently.
func fpMatrix(vals []float64) *CSR {
	return &CSR{
		NRows:  3,
		NCols:  3,
		RowPtr: []int64{0, 2, 3, 4},
		ColInd: []int32{0, 2, 1, 0},
		Val:    vals,
	}
}

func TestFingerprintStableAndValueBlind(t *testing.T) {
	a := fpMatrix([]float64{1, 2, 3, 4})
	b := fpMatrix([]float64{-9, 0.5, 7, 1e30}) // same structure, new values
	fa, fb := Fingerprint(a), Fingerprint(b)
	if fa != fb {
		t.Fatalf("re-valued matrix changed fingerprint: %s vs %s", fa, fb)
	}
	if Fingerprint(a) != fa {
		t.Fatal("fingerprint not deterministic")
	}
	if Fingerprint(a.Clone()) != fa {
		t.Fatal("clone changed fingerprint")
	}
}

func TestFingerprintSeesStructure(t *testing.T) {
	base := fpMatrix([]float64{1, 2, 3, 4})
	fp := Fingerprint(base)

	moved := fpMatrix([]float64{1, 2, 3, 4})
	moved.ColInd[3] = 2 // same counts, different column
	moved.Sym = SymGeneral
	if Fingerprint(moved) == fp {
		t.Fatal("column move not seen")
	}

	shifted := fpMatrix([]float64{1, 2, 3, 4})
	shifted.RowPtr = []int64{0, 1, 3, 4} // same colind stream, different row split
	shifted.Sym = SymGeneral
	if Fingerprint(shifted) == fp {
		t.Fatal("row-pointer shift not seen")
	}

	wide := fpMatrix([]float64{1, 2, 3, 4})
	wide.NCols = 4
	wide.Sym = SymGeneral
	if Fingerprint(wide) == fp {
		t.Fatal("dimension change not seen")
	}
}

func TestFingerprintSeesSymmetryKind(t *testing.T) {
	// Structurally symmetric pattern; values decide the kind.
	sym := &CSR{
		NRows: 2, NCols: 2,
		RowPtr: []int64{0, 2, 4},
		ColInd: []int32{0, 1, 0, 1},
		Val:    []float64{2, -1, -1, 2},
	}
	gen := sym.Clone()
	gen.Val = []float64{2, -1, 5, 2}
	gen.Sym = SymUnknown
	fs, fg := Fingerprint(sym), Fingerprint(gen)
	if fs == fg {
		t.Fatal("symmetric and general matrices share a fingerprint")
	}
	if !strings.Contains(fs, "-sym-") || !strings.Contains(fg, "-gen-") {
		t.Fatalf("symmetry tags missing: %s / %s", fs, fg)
	}
}

// TestFingerprintShape pins the rendered form: filename-safe, with the
// human-legible shape prefix the plan store's directory listing relies
// on. The version-1 form keeps its own prefix, which LegacyShape
// renders without hashing.
func TestFingerprintShape(t *testing.T) {
	m := fpMatrix([]float64{1, 2, 3, 4})
	if fp, want := Fingerprint(m), regexp.MustCompile(`^v2-3x3-4-(gen|sym|skew)-[0-9a-f]{16}$`); !want.MatchString(fp) {
		t.Fatalf("fingerprint %q does not match %v", fp, want)
	}
	v1 := LegacyFingerprint(m)
	if want := regexp.MustCompile(`^v1-3x3-4-(gen|sym|skew)-[0-9a-f]{16}$`); !want.MatchString(v1) {
		t.Fatalf("legacy fingerprint %q does not match %v", v1, want)
	}
	if shape := LegacyShape(m); !strings.HasPrefix(v1, shape) || len(v1) != len(shape)+16 {
		t.Fatalf("LegacyShape %q is not the prefix of %q", shape, v1)
	}
}

// TestFingerprintGolden pins fpMatrix's value in both versions, so a
// change to either hash, its serialization or its rendering fails
// here rather than silently orphaning every stored plan.
func TestFingerprintGolden(t *testing.T) {
	m := fpMatrix([]float64{1, 2, 3, 4})
	for _, c := range []struct{ got, want string }{
		{Fingerprint(m), "v2-3x3-4-gen-e3e942661e096243"},
		{LegacyFingerprint(m), "v1-3x3-4-gen-4aab3cb66ee73e02"},
	} {
		if c.got != c.want {
			t.Errorf("fingerprint %s, want %s", c.got, c.want)
		}
	}
}

// TestFingerprintSeesRowOrder swaps the column lists of two rows of
// equal length: once between rows whose blocks step the same lane in
// different rounds, once between rows on different lanes. The
// structure changes, so the hash must; a lane that summed its blocks
// instead of chaining them would miss the first swap.
func TestFingerprintSeesRowOrder(t *testing.T) {
	const rows, per = 8, 4 // one 16-byte column block per row
	base := &CSR{NRows: rows, NCols: 64, Sym: SymGeneral, RowPtr: make([]int64, rows+1)}
	for i := range rows {
		base.RowPtr[i+1] = int64((i + 1) * per)
		for j := range per {
			base.ColInd = append(base.ColInd, int32(8*i+j))
			base.Val = append(base.Val, 1)
		}
	}
	fp := Fingerprint(base)
	for _, sw := range [][2]int{{0, 4}, {0, 1}, {2, 7}} {
		m := base.Clone()
		a, b := m.ColInd[sw[0]*per:(sw[0]+1)*per], m.ColInd[sw[1]*per:(sw[1]+1)*per]
		for j := range per {
			a[j], b[j] = b[j], a[j]
		}
		if Fingerprint(m) == fp {
			t.Errorf("swapping the columns of rows %d and %d left the fingerprint %s", sw[0], sw[1], fp)
		}
	}
}

// TestFingerprintTails runs every tail length of both arrays, 0 to 17
// (past one whole round of each), against the byte-serial reference,
// and checks that the last element of each array is hashed.
func TestFingerprintTails(t *testing.T) {
	for nr := 0; nr <= 17; nr++ {
		for nc := 0; nc <= 17; nc++ {
			m := &CSR{NRows: 5, NCols: 7, Sym: SymGeneral, RowPtr: make([]int64, nr), ColInd: make([]int32, nc)}
			for i := range m.RowPtr {
				m.RowPtr[i] = int64(3*i + 1)
			}
			for i := range m.ColInd {
				m.ColInd[i] = int32(5*i + 2)
			}
			h := fingerprintV2(m)
			if want := fingerprintV2Reference(m); h != want {
				t.Fatalf("rowptr %d, colind %d: lanes %#x, reference %#x", nr, nc, h, want)
			}
			if nr > 0 {
				m.RowPtr[nr-1]++
				if fingerprintV2(m) == h {
					t.Errorf("rowptr %d, colind %d: the last row pointer is not hashed", nr, nc)
				}
				m.RowPtr[nr-1]--
			}
			if nc > 0 {
				m.ColInd[nc-1]++
				if fingerprintV2(m) == h {
					t.Errorf("rowptr %d, colind %d: the last column index is not hashed", nr, nc)
				}
			}
		}
	}
}

// fingerprintV2Reference is the version-2 hash written as simply as
// possible: serialize each segment to little-endian bytes, zero-pad it
// to whole 16-byte blocks, and step lane j&3 with block j.
func fingerprintV2Reference(m *CSR) uint64 {
	le := binary.LittleEndian
	var hdr, rp, ci []byte
	for _, w := range []uint64{uint64(m.NRows), uint64(m.NCols), uint64(len(m.ColInd)), uint64(m.SymmetryKind())} {
		hdr = le.AppendUint64(hdr, w)
	}
	for _, p := range m.RowPtr {
		rp = le.AppendUint64(rp, uint64(p))
	}
	for _, c := range m.ColInd {
		ci = le.AppendUint32(ci, uint32(c))
	}
	k := [4]uint64{0xa0761d6478bd642f, 0xe7037ed1a0b428db, 0x8ebc6af09c88c6e3, 0x9e3779b97f4a7c15}
	fold := func(a, b uint64) uint64 {
		hi, lo := bits.Mul64(a, b)
		return hi ^ lo
	}
	h := k
	for _, seg := range [][]byte{hdr, rp, ci} {
		for len(seg)%16 != 0 {
			seg = append(seg, 0)
		}
		for j := 0; 16*j < len(seg); j++ {
			l := j & 3
			h[l] = fold(h[l]^le.Uint64(seg[16*j:]), le.Uint64(seg[16*j+8:])^k[l])
		}
	}
	return fold(h[0]^k[2], h[1]^k[3]) ^ fold(h[2]^k[0], h[3]^k[1])
}

// mixWordReference is the byte-serial FNV-1a step the version-1 hash
// was first written with: eight dependent xor-and-multiply steps per
// word. It is the oracle for mixWord's folded zero bytes.
func mixWordReference(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= 1099511628211
	}
	return h
}

// fingerprintV1Reference is fingerprintV1 over mixWordReference: the
// version-1 value every plan stored before version 2 was keyed with.
func fingerprintV1Reference(m *CSR) uint64 {
	h := uint64(14695981039346656037)
	h = mixWordReference(h, uint64(m.NRows))
	h = mixWordReference(h, uint64(m.NCols))
	h = mixWordReference(h, uint64(m.SymmetryKind()))
	for _, p := range m.RowPtr {
		h = mixWordReference(h, uint64(p))
	}
	for _, c := range m.ColInd {
		h = mixWordReference(h, uint64(uint32(c)))
	}
	return h
}

// TestMixWordMatchesByteSerial checks the folded step on the byte
// boundaries where the count of hashed bytes changes.
func TestMixWordMatchesByteSerial(t *testing.T) {
	words := []uint64{0, 1, 0xff, 0x100, 0xffff, 0x10000, 1<<24 - 1, 1 << 24,
		1<<32 - 1, 1 << 32, 0x0100000000000001, 1 << 56, 1 << 63, 1<<64 - 1}
	for _, h := range []uint64{14695981039346656037, 0, 1<<64 - 1, 0x9f2a6c41d03b58e7} {
		for _, v := range words {
			if got, want := mixWord(h, v), mixWordReference(h, v); got != want {
				t.Errorf("mixWord(%#x, %#x) = %#x, want %#x", h, v, got, want)
			}
		}
	}
}

// TestFingerprintMatchesByteSerial compares both hashes with their
// references on random matrices: fingerprintV1 with the byte-serial
// FNV-1a chain, fingerprintV2 with the block-at-a-time lanes. The
// matrices are square and rectangular, symmetric, with empty rows,
// with columns past 2^24 (four-byte column words) and the 0×0 matrix.
func TestFingerprintMatchesByteSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	random := func(rows, cols, nnz int, mirror bool) *CSR {
		coo := NewCOO(rows, cols)
		for range nnz {
			r, c := rng.IntN(rows), rng.IntN(cols)
			coo.Add(r, c, 1)
			if mirror && r != c {
				coo.Add(c, r, 1)
			}
		}
		return coo.ToCSR()
	}
	ms := []*CSR{
		NewCOO(0, 0).ToCSR(),
		NewCOO(5, 5).ToCSR(), // only empty rows
		random(1, 1, 1, false),
		random(300, 300, 40, false), // mostly empty rows
		random(300, 300, 2000, true),
		random(200, 700, 3000, false),
		random(64, 1<<25, 500, false),
		random(1<<17, 1<<17, 300000, false), // row pointers past 2^16
	}
	for i, m := range ms {
		if got, want := fingerprintV1(m), fingerprintV1Reference(m.Clone()); got != want {
			t.Errorf("matrix %d (%dx%d, nnz %d): fingerprintV1 = %#x, want %#x",
				i, m.NRows, m.NCols, m.NNZ(), got, want)
		}
		if got, want := fingerprintV2(m), fingerprintV2Reference(m.Clone()); got != want {
			t.Errorf("matrix %d (%dx%d, nnz %d): fingerprintV2 = %#x, want %#x",
				i, m.NRows, m.NCols, m.NNZ(), got, want)
		}
	}
}
