package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// The asm-vs-scalar oracle contract (docs/guide/simd.md): every SIMD
// body of every tier the host executes (not just the dispatched one)
// must agree with its pure-Go oracle within 1e-12 relative over the
// generator families, including ragged, empty and dense rows and
// non-finite x values. This file runs under the default build (asm vs
// scalar) AND under `-tags noasm` (scalar vs scalar — the trivial
// fixed point that keeps the suite tag-portable); CI runs both.

const oracleTol = 1e-12

// testTiers are the body sets under differential test: every tier the
// host executes, or, without one, the pure-Go oracles themselves.
func testTiers() []isaTier {
	if len(tiers) > 0 {
		return tiers
	}
	return []isaTier{{isa: "scalar", lanes: 1, csr: CSRVector8Range, sell: SellCS8Range,
		block4: csrBlock4Range, block8: csrBlock8Range, delta: DeltaRange}}
}

// forTiers runs check as subtest name, with one nested subtest per
// tier under test (name/avx512, name/avx2, or name/scalar).
func forTiers(t *testing.T, name string, check func(t *testing.T, tr isaTier)) {
	t.Run(name, func(t *testing.T) {
		for _, tr := range testTiers() {
			t.Run(tr.isa, func(t *testing.T) { check(t, tr) })
		}
	})
}

// block returns the tier's register-blocked body for k = 4 or 8.
func (tr isaTier) block(k int) func(m *matrix.CSR, x, y []float64, lo, hi int) {
	if k == 4 {
		return tr.block4
	}
	return tr.block8
}

// sameFloat compares one output element under the oracle contract:
// non-finite results must agree in class (NaN with NaN, infinities
// with equal sign), finite results within 1e-12 relative.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= oracleTol*(1+math.Abs(a)+math.Abs(b))
}

func checkSame(t *testing.T, label string, want, got []float64) {
	t.Helper()
	for i := range want {
		if !sameFloat(want[i], got[i]) {
			t.Fatalf("%s: y[%d] = %g, oracle %g", label, i, got[i], want[i])
		}
	}
}

// dispatchMatrices are the differential shapes: the generator
// families plus hand-built edge cases — empty rows between full ones,
// ragged lengths straddling every unroll width, a dense row block,
// and a single-row matrix.
func dispatchMatrices() map[string]*matrix.CSR {
	ms := testMatrices()
	ms["ragged"] = raggedMatrix(97, 31)
	ms["one-row"] = gen.Dense(1, 33)
	ms["clustered"] = gen.ClusteredFEM(260, 24, 17, 44)
	return ms
}

// raggedMatrix builds rows of every length 0..maxLen cyclically, so
// each unroll width's main loop and tail both execute.
func raggedMatrix(n, maxLen int) *matrix.CSR {
	coo := matrix.NewCOO(n, n)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < n; i++ {
		rl := i % (maxLen + 1) // includes empty rows
		for j := 0; j < rl; j++ {
			coo.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	m := coo.ToCSR()
	m.Name = "ragged"
	return m
}

// TestDispatchCSRVec8Differential verifies each tier's CSR vector
// kernel against its pure-Go oracle over uneven row ranges. Variant
// hands every vectorize plan the first tier's body (the oracle itself
// when no assembly is dispatched), and VariantName names it.
func TestDispatchCSRVec8Differential(t *testing.T) {
	if reflect.ValueOf(Variant(true)).Pointer() != reflect.ValueOf(testTiers()[0].csr).Pointer() {
		t.Fatal("Variant(true) is not the dispatched vector body")
	}
	if name := VariantName(true); name != "csr-vec8"+isaSuffix() {
		t.Fatalf("VariantName(true) = %q for ISA %q", name, ISA())
	}
	for name, m := range dispatchMatrices() {
		forTiers(t, name, func(t *testing.T, tr isaTier) {
			x := vec(m.NCols, 7)
			want := make([]float64, m.NRows)
			CSRVector8Range(m, x, want, 0, m.NRows)
			got := make([]float64, m.NRows)
			bounds := []int{0, m.NRows / 3, m.NRows/3 + 1, 2*m.NRows/3 + 1, m.NRows}
			for b := 0; b+1 < len(bounds); b++ {
				if bounds[b] < bounds[b+1] {
					tr.csr(m, x, got, bounds[b], bounds[b+1])
				}
			}
			checkSame(t, tr.isa, want, got)
		})
	}
}

// TestDispatchSellC8Differential verifies each tier's SELL-C-σ chunk
// kernel against the pure-Go 8-accumulator oracle, which shares its
// padded-slot semantics exactly (padding repeats the row's last real
// column with value 0).
func TestDispatchSellC8Differential(t *testing.T) {
	for name, m := range dispatchMatrices() {
		forTiers(t, name, func(t *testing.T, tr isaTier) {
			s := formats.ConvertSellCS(m, 8, formats.DefaultSortWindow(m.NRows))
			x := vec(m.NCols, 8)
			want := make([]float64, m.NRows)
			SellCS8Range(s, x, want, 0, s.NChunks())
			got := make([]float64, m.NRows)
			nc := s.NChunks()
			bounds := []int{0, nc / 3, 2*nc/3 + 1, nc}
			for b := 0; b+1 < len(bounds); b++ {
				if lo, hi := bounds[b], min(bounds[b+1], nc); lo < hi {
					tr.sell(s, x, got, lo, hi)
				}
			}
			checkSame(t, tr.isa, want, got)
		})
	}
}

// TestDispatchBlockDifferential verifies each tier's k=4/8
// register-blocked SpMM bodies against ScalarCSRBlockRange on the
// interleaved block layout.
func TestDispatchBlockDifferential(t *testing.T) {
	for name, m := range dispatchMatrices() {
		for _, k := range []int{4, 8} { // subtests name, name#01
			forTiers(t, name, func(t *testing.T, tr isaTier) {
				x := vec(m.NCols*k, int64(10+k))
				want := make([]float64, m.NRows*k)
				ScalarCSRBlockRange(m, x, want, k, 0, m.NRows)
				got := make([]float64, m.NRows*k)
				bounds := []int{0, m.NRows/2 + 1, m.NRows}
				for b := 0; b+1 < len(bounds); b++ {
					if bounds[b] < bounds[b+1] {
						tr.block(k)(m, x, got, bounds[b], bounds[b+1])
					}
				}
				checkSame(t, tr.isa, want, got)
			})
		}
	}
}

// escapeMatrix builds rows of every length 0..31 whose column gaps mix
// short steps (1..300: escapes at 8 bits past 255) with jumps past
// 65535 (escapes at both widths) at random lanes, so escapes land in
// 16- and 8-element steps, in tails, back to back and at block edges.
func escapeMatrix(n int, seed int64) *matrix.CSR {
	const ncols = 1 << 21
	coo := matrix.NewCOO(n, ncols)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c := rng.Intn(1000)
		for j := 0; j < i%32 && c < ncols; j++ {
			coo.Add(i, c, rng.NormFloat64())
			if rng.Intn(4) == 0 {
				c += 65536 + rng.Intn(200)
			} else {
				c += 1 + rng.Intn(300)
			}
		}
	}
	m := coo.ToCSR()
	m.Name = "escapes"
	return m
}

// deltaMatrices are the delta differential shapes: the dispatch
// shapes plus escape-dense inputs — uniform random columns, where
// most 8-bit deltas escape, and escapeMatrix.
func deltaMatrices() map[string]*matrix.CSR {
	ms := dispatchMatrices()
	ms["uniform-wide"] = gen.UniformRandom(3000, 24, 12)
	ms["escapes"] = escapeMatrix(160, 13)
	return ms
}

// checkDelta runs body over rows [0, NRows) of d in the pieces bounds
// delimits, each starting at its overflow offset, against MulVecRows.
func checkDelta(t *testing.T, label string, d *formats.DeltaCSR, body DeltaKernel, x []float64, bounds []int) {
	t.Helper()
	offs := d.OverflowOffsets()
	want := make([]float64, d.NRows)
	d.MulVecRows(x, want, 0, d.NRows, 0)
	got := make([]float64, d.NRows)
	for i := range got {
		got[i] = math.NaN() // every row must be written
	}
	for b := 0; b+1 < len(bounds); b++ {
		if lo, hi := bounds[b], bounds[b+1]; lo < hi {
			body(d, x, got, lo, hi, offs[lo])
		}
	}
	checkSame(t, label, want, got)
}

// TestDispatchDeltaDifferential verifies each tier's delta decoder at
// both widths against DeltaCSR.MulVecRows, over uneven ranges that
// start mid-stream at their overflow offsets. DeltaVariant hands every
// Delta plan the first tier's body (TestISAConsistency pins its name).
func TestDispatchDeltaDifferential(t *testing.T) {
	if reflect.ValueOf(DeltaVariant()).Pointer() != reflect.ValueOf(testTiers()[0].delta).Pointer() {
		t.Fatal("DeltaVariant() is not the dispatched delta body")
	}
	for name, m := range deltaMatrices() {
		for _, w := range []formats.DeltaWidth{formats.Delta8, formats.Delta16} {
			forTiers(t, fmt.Sprintf("%s/w%d", name, w), func(t *testing.T, tr isaTier) {
				d := formats.CompressDelta(m, w)
				n := m.NRows
				bounds := []int{0, n / 3, n/3 + 1, 2*n/3 + 1, n}
				checkDelta(t, tr.isa, d, tr.delta, vec(m.NCols, 9), bounds)
			})
		}
	}
}

// TestDispatchNonFiniteX drives every dispatched body with x vectors
// containing NaN, ±Inf and extreme magnitudes: results must agree
// with the oracle in class (same NaN-ness, same infinity) — the
// fused-multiply bodies must not manufacture or lose non-finites.
func TestDispatchNonFiniteX(t *testing.T) {
	m := raggedMatrix(64, 19)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308, 5e-324, 0}
	x := make([]float64, m.NCols)
	rng := rand.New(rand.NewSource(3))
	for i := range x {
		if i%7 == 0 {
			x[i] = specials[(i/7)%len(specials)]
		} else {
			x[i] = rng.NormFloat64()
		}
	}

	forTiers(t, "csr-vec8", func(t *testing.T, tr isaTier) {
		want := make([]float64, m.NRows)
		CSRVector8Range(m, x, want, 0, m.NRows)
		got := make([]float64, m.NRows)
		tr.csr(m, x, got, 0, m.NRows)
		checkSame(t, tr.isa, want, got)
	})
	forTiers(t, "sellcs-c8", func(t *testing.T, tr isaTier) {
		s := formats.ConvertSellCS(m, 8, 32)
		want := make([]float64, m.NRows)
		SellCS8Range(s, x, want, 0, s.NChunks())
		got := make([]float64, m.NRows)
		tr.sell(s, x, got, 0, s.NChunks())
		checkSame(t, tr.isa, want, got)
	})
	for _, k := range []int{4, 8} { // subtests block, block#01
		forTiers(t, "block", func(t *testing.T, tr isaTier) {
			xb := make([]float64, m.NCols*k)
			for i := range xb {
				xb[i] = x[i/k]
			}
			want := make([]float64, m.NRows*k)
			ScalarCSRBlockRange(m, xb, want, k, 0, m.NRows)
			got := make([]float64, m.NRows*k)
			tr.block(k)(m, xb, got, 0, m.NRows)
			checkSame(t, tr.isa, want, got)
		})
	}
	for _, w := range []formats.DeltaWidth{formats.Delta8, formats.Delta16} {
		forTiers(t, fmt.Sprintf("delta/w%d", w), func(t *testing.T, tr isaTier) {
			checkDelta(t, tr.isa, formats.CompressDelta(m, w), tr.delta, x, []int{0, m.NRows / 2, m.NRows})
		})
	}
}

// TestDispatchQuick is the property form: arbitrary generated
// matrices, every dispatched body against its oracle.
func TestDispatchQuick(t *testing.T) {
	f := func(seed int64, sel uint8) bool {
		n := 40 + int(uint64(seed)%200)
		var m *matrix.CSR
		switch sel % 4 {
		case 0:
			m = gen.UniformRandom(n, 6, seed)
		case 1:
			m = gen.PowerLaw(n, 5, 2.0, n, seed)
		case 2:
			m = gen.ShortRows(n, 4, seed)
		case 3:
			m = gen.Dense(min(n, 96), seed)
		}
		x := vec(m.NCols, seed^0x5eed)

		want := make([]float64, m.NRows)
		CSRVector8Range(m, x, want, 0, m.NRows)
		got := make([]float64, m.NRows)
		Variant(true)(m, x, got, 0, m.NRows)
		for i := range want {
			if !sameFloat(want[i], got[i]) {
				return false
			}
		}

		s := formats.ConvertSellCS(m, 8, formats.DefaultSortWindow(m.NRows))
		ks, _ := SellCSVariant(s)
		SellCS8Range(s, x, want, 0, s.NChunks())
		ks(s, x, got, 0, s.NChunks())
		for i := range want {
			if !sameFloat(want[i], got[i]) {
				return false
			}
		}

		for _, k := range []int{4, 8} {
			xb := vec(m.NCols*k, seed+int64(k))
			wb := make([]float64, m.NRows*k)
			gb := make([]float64, m.NRows*k)
			ScalarCSRBlockRange(m, xb, wb, k, 0, m.NRows)
			CSRBlockRange(m, xb, gb, k, 0, m.NRows)
			for i := range wb {
				if !sameFloat(wb[i], gb[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDispatchCSRVec8 fuzzes the dispatched CSR vector kernel against
// its oracle with a matrix and x vector decoded from raw bytes: row
// lengths, column targets and values all attacker-chosen, non-finite
// x entries included.
func FuzzDispatchCSRVec8(f *testing.F) {
	f.Add([]byte{3, 1, 0, 255, 7, 9, 2, 0, 0, 1}, int64(1))
	f.Add([]byte{}, int64(2))
	f.Add([]byte{0, 0, 0, 0, 9, 9, 9}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		n := 1 + len(data)%32
		coo := matrix.NewCOO(n, n)
		for i := 0; i+2 < len(data); i += 3 {
			r := int(data[i]) % n
			c := int(data[i+1]) % n
			v := float64(int8(data[i+2])) / 16
			coo.Add(r, c, v)
		}
		m := coo.ToCSR()
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		for i := range x {
			switch rng.Intn(8) {
			case 0:
				x[i] = math.Inf(1)
			case 1:
				x[i] = math.NaN()
			default:
				x[i] = rng.NormFloat64()
			}
		}
		want := make([]float64, n)
		CSRVector8Range(m, x, want, 0, n)
		got := make([]float64, n)
		Variant(true)(m, x, got, 0, n)
		for i := range want {
			if !sameFloat(want[i], got[i]) {
				t.Fatalf("y[%d] = %g, oracle %g (isa %s)", i, got[i], want[i], ISA())
			}
		}
	})
}

// FuzzDispatchDelta fuzzes the dispatched delta decoder at both
// widths against MulVecRows, with a matrix, x vector and range split
// decoded from raw bytes: columns span 2^17, so deltas escape at 8 and
// at 16 bits, and non-finite x entries are included.
func FuzzDispatchDelta(f *testing.F) {
	f.Add([]byte{3, 1, 0, 255, 7, 9, 2, 0, 0, 1, 5, 5}, int64(1))
	f.Add([]byte{}, int64(2))
	f.Add([]byte{0, 0, 0, 9, 0, 255, 255, 9, 0, 0, 1, 9, 0, 1, 0, 9}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		const ncols = 1 << 17
		n := 1 + len(data)%32
		coo := matrix.NewCOO(n, ncols)
		for i := 0; i+3 < len(data); i += 4 {
			r := int(data[i]) % n
			c := (int(data[i+1])<<9 | int(data[i+2])<<1) % ncols
			coo.Add(r, c, float64(int8(data[i+3]))/16)
		}
		m := coo.ToCSR()
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, ncols)
		for i := range x {
			x[i] = float64(i%251)/64 - 2
		}
		for _, c := range m.ColInd { // non-finite entries where rows read
			switch rng.Intn(16) {
			case 0:
				x[c] = math.Inf(1)
			case 1:
				x[c] = math.NaN()
			case 2:
				x[c] = rng.NormFloat64()
			}
		}
		split := rng.Intn(n + 1)
		for _, w := range []formats.DeltaWidth{formats.Delta8, formats.Delta16} {
			checkDelta(t, fmt.Sprintf("%s/w%d", ISA(), w), formats.CompressDelta(m, w), DeltaVariant(), x, []int{0, split, n})
		}
	})
}

// TestISAConsistency pins the dispatch API: the name and lane count
// must agree, and the dispatched variants must carry the ISA suffix
// exactly when assembly is in play.
func TestISAConsistency(t *testing.T) {
	switch ISA() {
	case "avx512":
		if ISALanes() != 8 {
			t.Fatalf("avx512 lanes = %d", ISALanes())
		}
	case "avx2":
		if ISALanes() != 4 {
			t.Fatalf("avx2 lanes = %d", ISALanes())
		}
	case "scalar":
		if ISALanes() != 1 {
			t.Fatalf("scalar lanes = %d", ISALanes())
		}
	default:
		t.Fatalf("unknown ISA %q", ISA())
	}
	wantVec := "csr-vec8"
	if ISA() != "scalar" {
		wantVec += "-" + ISA()
	}
	if got := VariantName(true); got != wantVec {
		t.Fatalf("VariantName = %q, want %q", got, wantVec)
	}
	m := gen.UniformRandom(64, 5, 1)
	s := formats.ConvertSellCS(m, 8, 64)
	wantSell := "sellcs-c8"
	if ISA() != "scalar" {
		wantSell += "-" + ISA()
	}
	if _, name := SellCSVariant(s); name != wantSell {
		t.Fatalf("SellCSVariant = %q, want %q", name, wantSell)
	}
	wantDelta := "delta"
	if ISA() != "scalar" {
		wantDelta = "delta-vec8-" + ISA()
	}
	if got := DeltaVariantName(); got != wantDelta {
		t.Fatalf("DeltaVariantName = %q, want %q", got, wantDelta)
	}
}
