package matrix

import (
	"fmt"
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
// on.
func TestFingerprintShape(t *testing.T) {
	fp := Fingerprint(fpMatrix([]float64{1, 2, 3, 4}))
	want := regexp.MustCompile(`^v1-3x3-4-(gen|sym|skew)-[0-9a-f]{16}$`)
	if !want.MatchString(fp) {
		t.Fatalf("fingerprint %q does not match %v", fp, want)
	}
}

// mixWordReference is the byte-serial FNV-1a step Fingerprint was
// first written with: eight dependent xor-and-multiply steps per word.
// It is the oracle for mixWord's folded zero bytes.
func mixWordReference(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= 1099511628211
	}
	return h
}

// fingerprintReference is Fingerprint over mixWordReference: the
// version-1 value every stored plan was keyed with.
func fingerprintReference(m *CSR) string {
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
	return fmt.Sprintf("v1-%dx%d-%d-%s-%016x", m.NRows, m.NCols, m.NNZ(), symTag(m.Sym), h)
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

// TestFingerprintMatchesByteSerial compares Fingerprint with the
// byte-serial reference on random matrices: square and rectangular,
// symmetric, with empty rows, with columns past 2^24 (four-byte column
// words) and the 0×0 matrix.
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
		want := fingerprintReference(m.Clone())
		if got := Fingerprint(m); got != want {
			t.Errorf("matrix %d (%dx%d, nnz %d): Fingerprint = %s, want %s",
				i, m.NRows, m.NCols, m.NNZ(), got, want)
		}
	}
}
