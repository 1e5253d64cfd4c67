package matrix

import "fmt"

// fingerprintVersion is bumped whenever the hashed byte serialization
// changes, so fingerprints computed by different library versions can
// never silently collide in a shared plan store.
const fingerprintVersion = 1

// Fingerprint returns a stable structural identity for m: an FNV-1a
// hash over the dimensions, row pointers, column indices and symmetry
// kind, rendered with a human-legible shape prefix, e.g.
// "v1-20000x20000-138000-sym-9f2a6c41d03b58e7". Values are deliberately
// excluded — a re-valued matrix (new timestep, new edge weights on the
// same graph) has the same sparsity structure, so every structural
// tuning decision (format, schedule) carries over and a
// stored execution plan can be reused as-is.
//
// The hash is FNV-1a over each field's 8 little-endian bytes, the
// serialization fingerprintVersion 1 names, but it is not computed a
// byte at a time: mixWord folds the zero bytes above a word's highest
// nonzero byte into one multiply, so a column index or a row pointer
// below 2^32 costs at most four byte steps and one multiply instead of
// eight byte steps. The value is bit for bit the byte-serial one.
//
// The symmetry kind participates because the SSS storage path is only
// legal for exactly symmetric matrices: two structurally identical
// matrices, one symmetric in values and one not, must not share a plan
// that selected symmetric storage. Fingerprint resolves the kind via
// SymmetryKind, which caches on the matrix — like SymmetryKind itself
// it must not race with concurrent use of m; resolve before sharing
// (the facade does so at Tune time).
func Fingerprint(m *CSR) string {
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
	return fmt.Sprintf("v%d-%dx%d-%d-%s-%016x",
		fingerprintVersion, m.NRows, m.NCols, m.NNZ(), symTag(m.Sym), h)
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
