package mmio

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkDecimal parses tok with parseDecimal and, when it converts,
// requires strconv.ParseFloat's bits and a nil error. It reports
// whether the fast path converted.
func checkDecimal(t *testing.T, tok string) bool {
	t.Helper()
	v, end, ok := parseDecimal([]byte(tok), 0)
	if !ok {
		return false
	}
	if end != len(tok) {
		t.Fatalf("%q: end %d, want %d", tok, end, len(tok))
	}
	want, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		t.Fatalf("%q: fast path gave %v, strconv.ParseFloat fails: %v", tok, v, err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("%q: bits %#016x, strconv.ParseFloat %#016x", tok, math.Float64bits(v), math.Float64bits(want))
	}
	return true
}

// TestPowersOfTenRows pins two rows of the table against Go's
// strconv/eisel_lemire.go: the 1e43 row its comment spells out and
// the exact 10^0 row.
func TestPowersOfTenRows(t *testing.T) {
	tab := powersOfTen()
	for _, c := range []struct {
		q      int
		hi, lo uint64
	}{
		{43, 0xE596B7B0C643C719, 0x6D9CCD05D0000000},
		{0, 0x8000000000000000, 0},
	} {
		if got := tab[c.q-pow10MinExp10]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("1e%d row {%#016x, %#016x}, want {%#016x, %#016x}", c.q, got[0], got[1], c.lo, c.hi)
		}
	}
	for q, row := range tab {
		if row[1]>>63 != 1 {
			t.Fatalf("1e%d row %#016x not normalized", q+pow10MinExp10, row[1])
		}
	}
}

// TestParseDecimalEveryExponent walks every table row: each exponent
// with a one-digit mantissa, 2^53+1 (the first integer a float64
// cannot hold) and the largest 19-digit mantissa.
func TestParseDecimalEveryExponent(t *testing.T) {
	converted := 0
	for q := pow10MinExp10; q <= pow10MaxExp10; q++ {
		for _, man := range []uint64{1, 9007199254740993, 9999999999999999999} {
			if checkDecimal(t, strconv.FormatUint(man, 10)+"e"+strconv.Itoa(q)) {
				converted++
			}
		}
	}
	// Only the subnormal and overflowing products decline, 242 of the
	// 2088 tokens.
	if converted < 3*600 {
		t.Fatalf("fast path converted %d of %d tokens", converted, 3*(pow10MaxExp10-pow10MinExp10+1))
	}
}

// TestParseDecimalRandomBits formats random float64 bit patterns the
// ways Write and other writers do and requires ParseFloat's bits back.
func TestParseDecimalRandomBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 40_000
	if testing.Short() {
		n = 4_000
	}
	tried, converted := 0, 0
	for range n {
		f := math.Float64frombits(rng.Uint64())
		for _, format := range []byte{'g', 'e'} {
			for _, prec := range []int{17, 16, 15, 6, -1} {
				tried++
				if checkDecimal(t, strconv.FormatFloat(f, format, prec, 64)) {
					converted++
				}
			}
		}
	}
	// NaN, Inf and subnormals are rare among random bit patterns, and
	// Eisel–Lemire declines few normal values.
	if converted < tried*99/100 {
		t.Fatalf("fast path converted %d of %d tokens", converted, tried)
	}
}

// TestParseDecimalEdges covers the grammar's corners and the values
// the fast path must hand to strconv.ParseFloat.
func TestParseDecimalEdges(t *testing.T) {
	for _, c := range []struct {
		tok string
		ok  bool
	}{
		{"-0", true},
		{"+1", true},
		{".5", true},
		{"1.", true},
		{"-.5e1", true},
		{"0.5", true}, // exact; Eisel–Lemire alone declines it
		{"-2.5e-1", true},
		{"0001.2500", true},
		{"0.000000000000000000000000000000000001", true},
		{"0e9999", true},
		{"1234567890123456789", true},   // 19 digits
		{"12345678901234567890", true},  // 20 digits that fit a uint64
		{"98765432109876543210", false}, // 20 digits that do not
		{"1.7976931348623157e308", true},
		{"2.2250738585072014e-308", true}, // smallest normal
		{"2.2250738585072011e-308", false},
		{"4.9406564584124654e-324", false},
		{"1.7976931348623159e308", false},
		{"1e0400", false},
		{"1e00001", false}, // five exponent digits
		{"0x1p-2", false},
		{"1_0", false},
		{"Inf", false},
		{"-inf", false},
		{"nan", false},
		{"", false},
		{"+", false},
		{".", false},
		{"-.e1", false},
		{"1e", false},
		{"1e+", false},
		{"1.5x", false},
		{"1..5", false},
		{"1 ", false},
	} {
		if got := checkDecimal(t, c.tok); got != c.ok {
			t.Errorf("%q: ok %v, want %v", c.tok, got, c.ok)
		}
	}
	// A token ends at an ASCII space; the rest of the line is not read.
	if v, end, ok := parseDecimal([]byte("1 2 -2.5e-1\t7"), 4); !ok || v != -0.25 || end != 11 {
		t.Fatalf("mid-line token: %v, %d, %v", v, end, ok)
	}
}

// TestParseDecimalConvertsWriteOutput: every value Write emits must
// take the fast path, so Read cannot silently fall back to
// strconv.ParseFloat on its own output.
func TestParseDecimalConvertsWriteOutput(t *testing.T) {
	src := benchInput("real", "general", 2_000, 10)
	lines := bytes.Split(src, []byte{'\n'})
	for _, line := range lines[2:] {
		if len(line) == 0 {
			continue
		}
		i := bytes.LastIndexByte(line, ' ') + 1
		if _, _, ok := parseDecimal(line, i); !ok {
			t.Fatalf("value of %q declined", line)
		}
		checkDecimal(t, string(line[i:]))
	}
}

// TestReadMatchesReferenceOnBenchInputs compares the block parser with
// the line-at-a-time parser on BenchmarkRead's three input shapes.
func TestReadMatchesReferenceOnBenchInputs(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	for _, c := range []struct{ field, symmetry string }{
		{"real", "general"},
		{"real", "symmetric"},
		{"pattern", "general"},
	} {
		src := benchInput(c.field, c.symmetry, n, 10)
		m, err := Read(bytes.NewReader(src))
		if err != nil {
			t.Fatalf("%s %s: %v", c.field, c.symmetry, err)
		}
		ref, err := readReference(bytes.NewReader(src))
		if err != nil {
			t.Fatalf("%s %s: reference: %v", c.field, c.symmetry, err)
		}
		if d := csrDiff(m, ref); d != "" {
			t.Fatalf("%s %s: %s", c.field, c.symmetry, d)
		}
	}
}

// FuzzDecimal: on any token, parseDecimal either declines or returns
// strconv.ParseFloat's value bit for bit with a nil error, ending at
// an ASCII space or the end of the input.
func FuzzDecimal(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "+1", ".5", "1.", "1e5", "-1.2345678901234567e-89",
		"0.10000000000000001", "9007199254740993", "12345678901234567890",
		"2.2250738585072011e-308", "4.9406564584124654e-324",
		"1.7976931348623159e308", "1e0400", "0x1p-2", "1_0", "Inf", "nan",
		"1.5 2", "3\t", "7e-3x",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, end, ok := parseDecimal([]byte(s), 0)
		if !ok {
			return
		}
		if end < len(s) && byteClass[s[end]] != space {
			t.Fatalf("%q: token ends at %d before %q", s, end, s[end])
		}
		want, err := strconv.ParseFloat(s[:end], 64)
		if err != nil {
			t.Fatalf("%q: fast path gave %v, strconv.ParseFloat fails: %v", s[:end], v, err)
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%q: bits %#016x, strconv.ParseFloat %#016x", s[:end], math.Float64bits(v), math.Float64bits(want))
		}
	})
}
