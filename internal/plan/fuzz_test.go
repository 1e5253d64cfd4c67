package plan

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzPlanDecode feeds arbitrary bytes to the strict plan decoder, the
// trust boundary every stored or shipped plan crosses. Decode must
// either fail or return a plan that passes Valid and that survives
// Encode→Decode unchanged, with the re-encoding byte-identical.
func FuzzPlanDecode(f *testing.F) {
	f.Add([]byte(hugeBlockWidthPlan))
	f.Add([]byte(`{"version":1,"machine":"host","classes":[],"format":"split-csr","schedule":"static-nnz","vectorize":true,"split":true}`))
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		data, err := Encode(randomPlan(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		if err := p.Valid(); err != nil {
			t.Fatalf("decoded plan fails Valid: %v", err)
		}
		enc, err := Encode(p)
		if err != nil {
			t.Fatalf("decoded plan does not encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of %s: %v", enc, err)
		}
		if again != p {
			t.Fatalf("Encode→Decode changed the plan:\n%+v\n%+v", p, again)
		}
		if enc2, err := Encode(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s (%v)", enc, enc2, err)
		}
	})
}
