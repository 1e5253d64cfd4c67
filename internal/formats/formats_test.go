package formats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
)

func randomMatrix(seed int64, n int) *matrix.CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := matrix.NewCOO(n, n)
	for k := 0; k < 4*n; k++ {
		coo.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
	}
	return coo.ToCSR()
}

func mulEqual(t *testing.T, name string, m *matrix.CSR, mul func(x, y []float64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, m.NRows)
	m.MulVec(x, want)
	got := make([]float64, m.NRows)
	mul(x, got)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("%s: y[%d] = %g, want %g", name, i, got[i], want[i])
		}
	}
}

func TestDeltaRoundTrip8(t *testing.T) {
	m := gen.Banded(500, 20, 0.6, 3) // deltas all small -> width 8
	d := CompressDelta(m, Delta8)
	if !d.Decompress().Equal(m) {
		t.Fatal("delta8 round trip changed matrix")
	}
	if len(d.Overflow) != 0 {
		t.Fatalf("banded matrix should need no overflow, got %d", len(d.Overflow))
	}
}

func TestDeltaRoundTrip16(t *testing.T) {
	m := gen.UniformRandom(3000, 8, 5) // wide deltas
	d := CompressDelta(m, Delta16)
	if !d.Decompress().Equal(m) {
		t.Fatal("delta16 round trip changed matrix")
	}
}

func TestDeltaOverflowEscape(t *testing.T) {
	// A row with one huge delta forces the escape path under Delta8.
	coo := matrix.NewCOO(2, 100000)
	coo.Add(0, 0, 1)
	coo.Add(0, 70000, 2) // delta 70000 >> 255 and > 65535
	coo.Add(1, 5, 3)
	m := coo.ToCSR()
	for _, w := range []DeltaWidth{Delta8, Delta16} {
		d := CompressDelta(m, w)
		if len(d.Overflow) != 1 {
			t.Fatalf("width %d: overflow = %d, want 1", w, len(d.Overflow))
		}
		if !d.Decompress().Equal(m) {
			t.Fatalf("width %d: escape round trip failed", w)
		}
	}
}

func TestChooseWidth(t *testing.T) {
	if w := ChooseWidth(gen.Banded(500, 10, 0.8, 1)); w != Delta8 {
		t.Fatalf("banded width = %d, want 8", w)
	}
	// Uniform random over a huge column space: deltas mostly > 255,
	// so 8-bit pays 4-byte overflow per element and 16-bit wins.
	m := gen.UniformRandom(20000, 4, 2)
	if w := ChooseWidth(m); w != Delta16 {
		t.Fatalf("uniform width = %d, want 16", w)
	}
}

func TestDeltaCompressionRatio(t *testing.T) {
	m := gen.Banded(2000, 16, 0.9, 4)
	d := Compress(m)
	r := d.CompressionRatio()
	if r <= 1 {
		t.Fatalf("compression ratio = %g, want > 1 for banded matrix", r)
	}
	// CSR index bytes are 4/nnz; delta8 gets ~1/nnz, so the whole
	// matrix (12B/nnz) should shrink by roughly 11/12... at least 15%.
	if r < 1.15 {
		t.Fatalf("compression ratio = %g, want >= 1.15", r)
	}
}

func TestDeltaMulVec(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		m := randomMatrix(seed, 200)
		d := Compress(m)
		mulEqual(t, "delta", m, d.MulVec)
	}
}

func TestDeltaMulVecRowsParallelSlices(t *testing.T) {
	m := gen.UniformRandom(1000, 6, 9)
	d := Compress(m)
	offs := d.OverflowOffsets()
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	want := make([]float64, m.NRows)
	m.MulVec(x, want)
	got := make([]float64, m.NRows)
	// Simulate 4 threads starting mid-stream using overflow offsets.
	bounds := []int{0, 250, 500, 750, 1000}
	for t2 := 0; t2 < 4; t2++ {
		lo, hi := bounds[t2], bounds[t2+1]
		d.MulVecRows(x, got, lo, hi, offs[lo])
	}
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatalf("parallel delta y[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestOverflowOffsetsTotal(t *testing.T) {
	m := gen.UniformRandom(2000, 5, 21)
	d := CompressDelta(m, Delta8)
	offs := d.OverflowOffsets()
	if offs[len(offs)-1] != len(d.Overflow) {
		t.Fatalf("offsets end %d != overflow length %d", offs[len(offs)-1], len(d.Overflow))
	}
}

func TestDeltaEmptyRows(t *testing.T) {
	coo := matrix.NewCOO(5, 5)
	coo.Add(0, 1, 1)
	coo.Add(4, 4, 2) // rows 1..3 empty
	m := coo.ToCSR()
	d := Compress(m)
	if !d.Decompress().Equal(m) {
		t.Fatal("empty-row round trip failed")
	}
	mulEqual(t, "delta-empty", m, d.MulVec)
}

func TestDeltaBytesSmallerThanCSR(t *testing.T) {
	m := gen.ClusteredFEM(4096, 64, 30, 6)
	d := Compress(m)
	if d.Bytes() >= m.Bytes() {
		t.Fatalf("delta bytes %d >= csr bytes %d", d.Bytes(), m.Bytes())
	}
}

// Property: delta compression round-trips for both widths on arbitrary
// generator outputs.
func TestDeltaRoundTripQuick(t *testing.T) {
	f := func(seed int64, wide bool, sel uint8) bool {
		n := 80 + int(uint64(seed)%160)
		var m *matrix.CSR
		switch sel % 4 {
		case 0:
			m = gen.UniformRandom(n, 5, seed)
		case 1:
			m = gen.Banded(n, 6, 0.5, seed)
		case 2:
			m = gen.PowerLaw(n, 5, 2.0, n, seed)
		case 3:
			m = gen.ShortRows(n, 3, seed)
		}
		w := Delta8
		if wide {
			w = Delta16
		}
		return CompressDelta(m, w).Decompress().Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
