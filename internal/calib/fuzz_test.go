package calib

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/machine"
)

// FuzzCalibrationDecode feeds arbitrary bytes to the strict artifact
// decoder, the trust boundary a calibration file crosses at startup.
// Decode must either fail or return an artifact that passes Valid and
// that survives Encode→Decode unchanged, with the re-encoding
// byte-identical. Nothing is built from the decoded artifacts.
func FuzzCalibrationDecode(f *testing.F) {
	f.Add([]byte(hostileTopology))
	for _, c := range []Calibration{sample(), FromModel(machine.Host()), FromModel(machine.KNL())} {
		data, err := Encode(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			return
		}
		if err := c.Valid(); err != nil {
			t.Fatalf("decoded artifact fails Valid: %v", err)
		}
		enc, err := Encode(c)
		if err != nil {
			t.Fatalf("decoded artifact does not encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of %s: %v", enc, err)
		}
		if enc2, err := Encode(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s (%v)", enc, enc2, err)
		}
		// An empty sweep encodes as an omitted one; compare the rest
		// field for field.
		c.ThreadSweep, c.WorkingSetSweep = nonEmpty(c.ThreadSweep), nonEmpty(c.WorkingSetSweep)
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("Encode→Decode changed the artifact:\n%+v\n%+v", c, again)
		}
	})
}

// nonEmpty maps an empty sweep to nil, the form an omitted one decodes
// to.
func nonEmpty(s []BandwidthPoint) []BandwidthPoint {
	if len(s) == 0 {
		return nil
	}
	return s
}
