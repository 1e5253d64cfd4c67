package matrix_test

import (
	"testing"

	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// TestSuiteFingerprintGolden pins both fingerprint versions of one
// generated suite matrix. The version-1 value is the key a stored plan
// for this matrix carries (testdata/legacy-host-knobs at the module
// root), so a hash that drifted across processes or architectures
// would orphan it.
func TestSuiteFingerprintGolden(t *testing.T) {
	m := suite.ByName("ASIC_680k", 0.05)
	if got, want := matrix.LegacyFingerprint(m), "v1-30000x30000-229980-gen-98d6d2f4f0599b84"; got != want {
		t.Errorf("LegacyFingerprint = %s, want %s", got, want)
	}
	if got, want := matrix.Fingerprint(m), "v2-30000x30000-229980-gen-f6cab073a1af0c2d"; got != want {
		t.Errorf("Fingerprint = %s, want %s", got, want)
	}
}
