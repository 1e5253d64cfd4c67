package matrix_test

import (
	"testing"

	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// benchMatrices are the whole-matrix checks' sizing inputs: the two
// solve matrices at their benchmark scales (symmetric, so detection
// walks every entry) and pattern1 (general, long rows).
var benchMatrices = []struct {
	name  string
	scale float64
}{{"lap3d", 1}, {"lap2d", 0.25}, {"pattern1", 1}}

// BenchmarkFingerprint times the structural hash alone, the current
// four-lane form (v2) and the FNV-1a chain kept for migrating stored
// plans (v1): the symmetry kind is resolved before the timer starts.
func BenchmarkFingerprint(b *testing.B) {
	for _, leg := range []struct {
		name string
		fp   func(*matrix.CSR) string
	}{{"v1", matrix.LegacyFingerprint}, {"v2", matrix.Fingerprint}} {
		b.Run(leg.name, func(b *testing.B) {
			for _, bm := range benchMatrices {
				b.Run(bm.name, func(b *testing.B) {
					m := suite.ByName(bm.name, bm.scale)
					m.SymmetryKind()
					for b.Loop() {
						leg.fp(m)
					}
				})
			}
		})
	}
}

// BenchmarkDetectSymmetry times one full symmetry classification.
func BenchmarkDetectSymmetry(b *testing.B) {
	for _, bm := range benchMatrices {
		b.Run(bm.name, func(b *testing.B) {
			m := suite.ByName(bm.name, bm.scale)
			for b.Loop() {
				matrix.DetectSymmetry(m)
			}
		})
	}
}
