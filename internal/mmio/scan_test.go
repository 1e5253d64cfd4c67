package mmio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// fixtures returns every parser fixture: the fuzz seeds, the checked-in
// fuzz corpus and the unit-test samples.
func fixtures(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{"sample": sample, "symSample": symSample}
	for i, s := range fuzzSeeds {
		out[fmt.Sprintf("seed#%d", i)] = s
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is the version line and one []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = s
	}
	return out
}

// TestReadChunkBoundaries puts a block boundary at every byte offset of
// every fixture: each block size from 1 to 64 bytes must give exactly
// the reference parser's result or error.
func TestReadChunkBoundaries(t *testing.T) {
	for name, src := range fixtures(t) {
		ref, rerr := readReference(strings.NewReader(src))
		for block := 1; block <= 64; block++ {
			m, err := read(strings.NewReader(src), block)
			if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
				t.Fatalf("%s, block %d: error %v, reference %v", name, block, err, rerr)
			}
			if err == nil {
				if d := csrDiff(m, ref); d != "" {
					t.Fatalf("%s, block %d: %s", name, block, d)
				}
			}
		}
	}
}

// TestReadHugeNNZHeader: a header claiming 2^40 entries over a few bytes
// of input must fail at EOF without allocating for the claimed count.
func TestReadHugeNNZHeader(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n3 3 1099511627776\n1 1 1\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(strings.NewReader(src))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want one wrapping io.EOF", err)
	}
	if !strings.Contains(err.Error(), "entry 2/1099511627776") {
		t.Fatalf("err = %v, want it to name entry 2/1099511627776", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
		t.Fatalf("allocated %d bytes for a %d-byte input", d, len(src))
	}
}

// benchInput renders an n x n Matrix Market file with perRow entries
// per row (lower triangle only for symmetric), in row-major order as
// Write emits it.
func benchInput(field, symmetry string, n, perRow int) []byte {
	rng := rand.New(rand.NewSource(1))
	b := fmt.Appendf(nil, "%%%%MatrixMarket matrix coordinate %s %s\n", field, symmetry)
	var lines [][2]int
	for i := 1; i <= n; i++ {
		hi := n
		if symmetry != "general" {
			hi = i
		}
		cols := make([]int, 0, perRow)
		for range min(perRow, hi) {
			cols = append(cols, 1+rng.Intn(hi))
		}
		slices.Sort(cols)
		for _, j := range slices.Compact(cols) {
			lines = append(lines, [2]int{i, j})
		}
	}
	b = fmt.Appendf(b, "%d %d %d\n", n, n, len(lines))
	for _, e := range lines {
		b = strconv.AppendInt(b, int64(e[0]), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e[1]), 10)
		if field != "pattern" {
			b = append(b, ' ')
			b = strconv.AppendFloat(b, rng.NormFloat64(), 'g', 17, 64)
		}
		b = append(b, '\n')
	}
	return b
}

// BenchmarkRead parses about a million entries per file: general real
// (10 per row), symmetric real (lower triangle, mirrored on parse) and
// general pattern. The byte rate is of the input text.
func BenchmarkRead(b *testing.B) {
	for _, c := range []struct{ name, field, symmetry string }{
		{"general", "real", "general"},
		{"symmetric", "real", "symmetric"},
		{"pattern", "pattern", "general"},
	} {
		src := benchInput(c.field, c.symmetry, 100_000, 10)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Read(bytes.NewReader(src)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
