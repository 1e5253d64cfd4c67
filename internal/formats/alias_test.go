package formats

import (
	"strings"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// mustPanicAliased asserts f panics with the aliasing message; the
// spmvlint aliasguard analyzer enforces that the guard exists, these
// tests pin its runtime behavior.
func mustPanicAliased(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: aliased call did not panic", name)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "alias") {
			t.Fatalf("%s: panic %v, want aliasing panic", name, r)
		}
	}()
	f()
}

// aliasedPair returns x and y of length n sharing backing memory.
func aliasedPair(n int) (x, y []float64) {
	buf := make([]float64, n+n/2)
	return buf[:n], buf[n/2 : n/2+n]
}

func TestFormatsRejectAliasedOutputs(t *testing.T) {
	m := randomMatrix(7, 32)
	n := m.NRows
	x, y := aliasedPair(n)

	sell := ConvertSellCS(m, 8, 16)
	mustPanicAliased(t, "SellCS.MulVec", func() { sell.MulVec(x, y) })

	del := Compress(m)
	mustPanicAliased(t, "DeltaCSR.MulVec", func() { del.MulVec(x, y) })

	// SSS stores only the lower triangle of a symmetric matrix — and
	// its scatter y[c] += v*x[i] makes aliased calls corrupt silently,
	// which is exactly why the guard must be first.
	coo := matrix.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i+1 < n {
			coo.Add(i, i+1, 1)
			coo.Add(i+1, i, 1)
		}
	}
	s := ConvertSSS(coo.ToCSR())
	mustPanicAliased(t, "SSS.MulVec", func() { s.MulVec(x, y) })
}
