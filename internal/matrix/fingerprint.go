package matrix

import (
	"fmt"
	"math/bits"
)

// fingerprintVersion is bumped whenever the hashed serialization or
// the hash changes, so fingerprints computed by different library
// versions can never silently collide in a shared plan store. Version
// 1 was a serial FNV-1a chain (fingerprintV1); version 2 is the
// four-lane hash below.
const fingerprintVersion = 2

// Fingerprint returns a stable structural identity for m: a hash over
// the dimensions, row pointers, column indices and symmetry kind,
// rendered with a human-legible shape prefix, e.g.
// "v2-20000x20000-138000-sym-9f2a6c41d03b58e7". Values are deliberately
// excluded — a re-valued matrix (new timestep, new edge weights on the
// same graph) has the same sparsity structure, so every structural
// tuning decision (format, schedule) carries over and a
// stored execution plan can be reused as-is.
//
// The hash (fingerprintV2) runs four independent lanes, so the
// multiplies of neighbouring 16-byte blocks overlap instead of
// forming one dependent chain. Two distinct structures share the
// 64-bit value with probability about 2^-64, so among n distinct
// structures of one shape the odds of any collision are about
// n²/2^65. A collision costs speed, never correctness: the shape
// prefix must match as well, ValidateForFingerprint still rejects
// symmetric storage for a matrix that is not symmetric, and every
// format is built from the matrix itself at Prepare, so the worst a
// colliding plan can do is serve a valid product with a slower plan.
//
// The symmetry kind participates because the SSS storage path is only
// legal for exactly symmetric matrices: two structurally identical
// matrices, one symmetric in values and one not, must not share a plan
// that selected symmetric storage. Fingerprint resolves the kind via
// SymmetryKind, which caches on the matrix — like SymmetryKind itself
// it must not race with concurrent use of m; resolve before sharing
// (the facade does so at Tune time).
func Fingerprint(m *CSR) string {
	h := fingerprintV2(m)
	return fmt.Sprintf("%s%016x", shape(fingerprintVersion, m), h)
}

// LegacyFingerprint returns m's version-1 fingerprint, the key plans
// stored before version 2 are filed under. It exists only to migrate
// those plans; every new key is Fingerprint's.
func LegacyFingerprint(m *CSR) string {
	h := fingerprintV1(m)
	return fmt.Sprintf("%s%016x", shape(1, m), h)
}

// LegacyShape returns the prefix every version-1 fingerprint of m
// starts with, e.g. "v1-20000x20000-138000-sym-", without hashing m.
func LegacyShape(m *CSR) string {
	m.SymmetryKind()
	return shape(1, m)
}

// shape renders the human-legible prefix of a fingerprint of the
// given version. m's symmetry kind must already be resolved.
func shape(version int, m *CSR) string {
	return fmt.Sprintf("v%d-%dx%d-%d-%s-", version, m.NRows, m.NCols, m.NNZ(), symTag(m.Sym))
}

// fpK0..fpK3 (fpLane) are the lane constants k_l, also the lanes'
// seeds: odd, with bit 63 set. No word of a CSR with nonnegative row
// pointers and column indices has bit 63 set, so b^k_l in a lane step
// is never zero and a step never multiplies a lane's history away.
const (
	fpK0 = 0xa0761d6478bd642f
	fpK1 = 0xe7037ed1a0b428db
	fpK2 = 0x8ebc6af09c88c6e3
	fpK3 = 0x9e3779b97f4a7c15
)

var fpLane = [4]uint64{fpK0, fpK1, fpK2, fpK3}

// mulfold is the wyhash step: the high and low halves of the 128-bit
// product a·b, xored.
func mulfold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// fingerprintV2 is the version-2 hash. It reads three segments as
// little-endian words: the header (rows, columns, nonzeros, symmetry
// kind), the row pointers (one word each) and the column indices (two
// uint32s per word, the first in the low half). Each segment is cut
// into 16-byte blocks (a, b), the last one zero-padded, and block j
// of a segment steps lane j&3 as h[l] = mulfold(h[l]^a, b^k_l). The
// lanes then fold into one value.
func fingerprintV2(m *CSR) uint64 {
	h := lanes(fpLane)
	h[0] = mulfold(h[0]^uint64(m.NRows), uint64(m.NCols)^fpK0)
	h[1] = mulfold(h[1]^uint64(len(m.ColInd)), uint64(m.SymmetryKind())^fpK1)
	h.rowPtrs(m.RowPtr)
	h.colInds(m.ColInd)
	return mulfold(h[0]^fpK2, h[1]^fpK3) ^ mulfold(h[2]^fpK0, h[3]^fpK1)
}

// lanes is fingerprintV2's state.
type lanes [4]uint64

// rowPtrs hashes the row-pointer segment: two pointers per block,
// four blocks per round, then the last few blocks one at a time.
func (h *lanes) rowPtrs(p []int64) {
	h0, h1, h2, h3 := h[0], h[1], h[2], h[3]
	for ; len(p) >= 8; p = p[8:] {
		h0 = mulfold(h0^uint64(p[0]), uint64(p[1])^fpK0)
		h1 = mulfold(h1^uint64(p[2]), uint64(p[3])^fpK1)
		h2 = mulfold(h2^uint64(p[4]), uint64(p[5])^fpK2)
		h3 = mulfold(h3^uint64(p[6]), uint64(p[7])^fpK3)
	}
	*h = lanes{h0, h1, h2, h3}
	var t [8]int64
	n := copy(t[:], p)
	for l := 0; 2*l < n; l++ {
		h[l] = mulfold(h[l]^uint64(t[2*l]), uint64(t[2*l+1])^fpLane[l])
	}
}

// colInds hashes the column-index segment: four columns per block,
// four blocks per round, then the last few blocks one at a time.
func (h *lanes) colInds(c []int32) {
	h0, h1, h2, h3 := h[0], h[1], h[2], h[3]
	for ; len(c) >= 16; c = c[16:] {
		h0 = mulfold(h0^pair(c[0], c[1]), pair(c[2], c[3])^fpK0)
		h1 = mulfold(h1^pair(c[4], c[5]), pair(c[6], c[7])^fpK1)
		h2 = mulfold(h2^pair(c[8], c[9]), pair(c[10], c[11])^fpK2)
		h3 = mulfold(h3^pair(c[12], c[13]), pair(c[14], c[15])^fpK3)
	}
	*h = lanes{h0, h1, h2, h3}
	var t [16]int32
	n := copy(t[:], c)
	for l := 0; 4*l < n; l++ {
		h[l] = mulfold(h[l]^pair(t[4*l], t[4*l+1]), pair(t[4*l+2], t[4*l+3])^fpLane[l])
	}
}

// pair packs two column indices into one word, c0 in the low half.
func pair(c0, c1 int32) uint64 {
	return uint64(uint32(c0)) | uint64(uint32(c1))<<32
}

// fingerprintV1 is the version-1 hash: FNV-1a over each field's 8
// little-endian bytes. It is not computed a byte at a time: mixWord
// folds the zero bytes above a word's highest nonzero byte into one
// multiply, so a column index or a row pointer below 2^32 costs at
// most four byte steps and one multiply instead of eight byte steps.
// The value is bit for bit the byte-serial one.
func fingerprintV1(m *CSR) uint64 {
	h := uint64(fnvOffset64)
	h = mixWord(h, uint64(m.NRows))
	h = mixWord(h, uint64(m.NCols))
	h = mixWord(h, uint64(m.SymmetryKind()))
	for _, p := range m.RowPtr {
		h = mixWord(h, uint64(p))
	}
	for _, c := range m.ColInd {
		h = mixWord(h, uint64(uint32(c)))
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime64^k mod 2^64: k FNV-1a steps over zero
// bytes, since xor with a zero byte leaves the state unchanged.
var fnvPrimePow = func() (pw [9]uint64) {
	pw[0] = 1
	for k := 1; k < len(pw); k++ {
		pw[k] = pw[k-1] * fnvPrime64
	}
	return pw
}()

// mixWord advances the FNV-1a state h over the 8 little-endian bytes
// of v: one xor-and-multiply step per byte up to v's highest nonzero
// byte, then one multiply for the zero bytes above it.
func mixWord(h, v uint64) uint64 {
	k := 8
	for ; v != 0; v >>= 8 {
		h = (h ^ v&0xff) * fnvPrime64
		k--
	}
	return h * fnvPrimePow[k]
}

// symTag is the short filename-safe symmetry tag embedded in
// fingerprints.
func symTag(s Symmetry) string {
	switch s {
	case SymSymmetric:
		return "sym"
	case SymSkew:
		return "skew"
	default:
		return "gen"
	}
}
