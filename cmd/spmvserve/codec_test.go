package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// codecSeeds are mul bodies at the edges of the scanner's grammar. fast
// says whether scanX must take the body itself rather than leave it to
// encoding/json.
var codecSeeds = []struct {
	body string
	fast bool
}{
	{`{"x":[1,2.5,-3e-7]}`, true},
	{" {\t\"x\" :\r\n[ 1 ,\t2 ]\r\n}\r\n", true},
	{`{"x":[]}`, true},
	{`{"x":[-0]}`, true},
	{`{"x":[5e-324]}`, true},
	{`{"x":[1E+2,0.5e-1]}`, true},
	{`{"X":[1]}`, false},
	{`{"x":[1],"x":[2]}`, false},
	{`{"x":[1]} trailing`, false},
	{`{"x":[1.]}`, false},
	{`{"x":[.5]}`, false},
	{`{"x":[+1]}`, false},
	{`{"x":[01]}`, false},
	{`{"x":[1e400]}`, false},
	{`{"x":[-]}`, false},
	{`{"x":null}`, false},
	{`null`, false},
	{`{"x":[[1]]}`, false},
	{`{"x":[1,]}`, false},
	{``, false},
}

// decodeRef is the reference decode: encoding/json over the whole body.
func decodeRef(body []byte) ([]float64, error) {
	var req struct {
		X []float64 `json:"x"`
	}
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.X, err
}

// encodeRef is the reference encode: what writeJSON sends for a
// product.
func encodeRef(y []float64) ([]byte, error) {
	b, err := json.Marshal(map[string]any{"y": y})
	return append(b, '\n'), err
}

// checkDecode holds decodeX to decodeRef on one body: both fail with
// the same error, or both succeed with bit-identical x.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	// A dirty scratch slice: stale elements must not leak into x.
	dst := []float64{math.NaN(), 7, 8}[:0]
	got, gotErr := decodeX(body, dst)
	want, wantErr := decodeRef(body)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("body %q: error %v, encoding/json %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("body %q: %d elements, encoding/json %d", body, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("body %q: x[%d] = %v, encoding/json %v", body, i, got[i], want[i])
		}
	}
}

// checkEncode holds appendY to encodeRef on one y: the same bytes, or
// both refuse a non-finite value.
func checkEncode(t *testing.T, y []float64) {
	t.Helper()
	got, ok := appendY([]byte("stale"), y)
	want, err := encodeRef(y)
	if ok != (err == nil) {
		t.Fatalf("y %v: appendY ok=%v, json.Marshal error %v", y, ok, err)
	}
	if ok && !bytes.Equal(got[len("stale"):], want) {
		t.Fatalf("y %v:\n got %s\nwant %s", y, got[len("stale"):], want)
	}
}

// floatsOf reads b as little-endian float64 bit patterns.
func floatsOf(b []byte) []float64 {
	y := make([]float64, len(b)/8)
	for i := range y {
		y[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return y
}

func bitsOf(ys ...float64) []byte {
	b := make([]byte, 0, 8*len(ys))
	for _, v := range ys {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// TestMulCodecSeeds pins which seed bodies the scanner takes, so the
// differential cannot pass by every body falling back, and runs both
// differentials on them.
func TestMulCodecSeeds(t *testing.T) {
	for _, c := range codecSeeds {
		if _, ok := scanX([]byte(c.body), nil); ok != c.fast {
			t.Errorf("scanX(%q) took=%v, want %v", c.body, ok, c.fast)
		}
		checkDecode(t, []byte(c.body))
	}
	checkEncode(t, []float64{})
	checkEncode(t, []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-6, 9.99e-7, 1e-7, 1e-10, 1e20, 1e21, 5e-324, math.MaxFloat64})
	checkEncode(t, []float64{1, math.Inf(1)})
	checkEncode(t, []float64{math.NaN()})
}

// FuzzMulCodec runs the hand codec against encoding/json: the body
// through decodeX and a json.Decoder, and the bits, read as float64s,
// through appendY and json.Marshal.
func FuzzMulCodec(f *testing.F) {
	for _, c := range codecSeeds {
		f.Add([]byte(c.body), bitsOf(5e-324, math.Copysign(0, -1), 1e21, 1e-7))
	}
	f.Add([]byte(`{"x":[1]}`), bitsOf(math.Inf(-1), math.NaN(), 1e-6))
	f.Fuzz(func(t *testing.T, body, bits []byte) {
		checkDecode(t, body)
		checkEncode(t, floatsOf(bits))
	})
}

// TestMulCodecAllocFree: reading, decoding and encoding a 16,000-element
// multiply on warmed scratch allocates nothing.
func TestMulCodecAllocFree(t *testing.T) {
	const n = 16000
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	body, err := json.Marshal(map[string][]float64{"x": x})
	if err != nil {
		t.Fatal(err)
	}
	limit := mulBodyLimit(n)
	s := new(mulScratch)
	rd := bytes.NewReader(body)
	roundTrip := func() {
		rd.Reset(body)
		if err := s.readBody(rd, int64(len(body)), limit); err != nil {
			t.Fatal(err)
		}
		got, err := decodeX(s.body.Bytes(), s.x)
		if err != nil {
			t.Fatal(err)
		}
		s.x = got
		var ok bool
		if s.out, ok = appendY(s.out[:0], got); !ok {
			t.Fatal("finite y refused")
		}
	}
	roundTrip()
	if _, ok := scanX(s.body.Bytes(), nil); !ok {
		t.Fatal("json.Marshal output fell back to encoding/json")
	}
	if want, _ := encodeRef(x); !bytes.Equal(s.out, want) {
		t.Fatal("round trip does not reproduce json.Marshal")
	}
	if allocs := testing.AllocsPerRun(20, roundTrip); allocs != 0 {
		t.Fatalf("warmed round trip: %v allocs, want 0", allocs)
	}
}
