package mmio

// Native Go fuzz target for the Matrix Market parser. Three
// properties: the parser never panics on any byte stream (it returns
// errors); it agrees with the line-at-a-time reference parser on every
// input, error text and value bits included; and any input it accepts
// survives a write+reparse round trip — what goes through the
// assembler once must be a fixed point of the format.

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// fuzzSeeds is the seed corpus: the fixture of every supported
// typecode (coordinate real/integer/pattern × general/symmetric/
// skew-symmetric, array real), plus malformed shapes the error paths
// reject.
var fuzzSeeds = []string{
	sample,
	"%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2\n2 1 5\n3 3 1\n",
	"%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3\n",
	"%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n",
	"%%MatrixMarket matrix coordinate integer general\n2 3 2\n1 1 7\n2 3 -4\n",
	"%%MatrixMarket matrix array real general\n2 2\n1\n0\n3\n4\n",
	"%%MatrixMarket matrix coordinate real general\n% comment\n\n1 1 0\n",
	"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n1 1 2\n", // duplicate, summed
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1e308\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 NaN\n",
	// Symmetric write+reparse fixed point: these now round-trip through
	// the compact "symmetric"/"skew-symmetric" writer, which must
	// reproduce the assembled matrix exactly.
	"%%MatrixMarket matrix coordinate real symmetric\n4 4 5\n1 1 2.5\n2 1 -1\n4 2 4\n3 3 9\n4 4 0.125\n",
	"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 2 7\n2 2 1\n", // upper-triangle entry, mirrored on parse
	"%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 3\n2 1 3\n3 1 -0.5\n2 2 0\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n",
	"3 3 1\n1 1 1\n", // missing banner
	"%%MatrixMarket matrix coordinate real general\nxyz\n", // bad size line
	"%%MatrixMarket matrix array real general\n-5 3\n1\n",  // negative dims
	"%%MatrixMarket matrix coordinate real general\n99999999999 2 1\n1 1 1\n",
	"%%MatrixMarket", // truncated banner
	"",
	// Grammar corners the block parser must read exactly as the
	// line-at-a-time parser does.
	"%%MatrixMarket matrix coordinate real general\r\n3 3 3\r\n\t1\t1\t1.5\r\n   2 2 -3\r\n \t3 1 4 \r\n",
	"%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1\n% between entries\n2 2 2\n  % indented\n\n3 3 3\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\nnot an entry\n\xff\xfe 9 9 9\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 2",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1\u00a01\u00a01.5\n\u00852\u00852 2\u0085\n",
	"%%MatrixMarket matrix coordinate real general\n9 9 2\n+5 007 1\n007 +5 2\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 inf\n2 2 0x1p-2\n1 2 -Inf\n",
	"%%MatrixMarket matrix array real general\r\n2 2\r\n% comment\r\n1\r\n\u00a00\r\n-0\r\n4",
	longDuplicateRow,
}

// longDuplicateRow is one row of 40 entries, eight on each of five
// columns in descending order, with values whose sum depends on its
// order. The row is long enough that the row sort is not an insertion
// sort, so the duplicates are summed in an order the sort decides; it
// must still match the COO builder's bit for bit.
var longDuplicateRow = func() string {
	var b strings.Builder
	b.WriteString("%%MatrixMarket matrix coordinate real general\n1 5 40\n")
	vals := []string{"1e16", "1", "-1e16", "0.1", "3", "-0.3", "1e-3"}
	for k := 0; k < 40; k++ {
		fmt.Fprintf(&b, "1 %d %s\n", 5-k%5, vals[k%len(vals)])
	}
	return b.String()
}()

// valsEqual compares float64s treating NaN as equal to itself (the
// text round trip preserves NaN/Inf spellings, which == cannot see).
func valsEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			// Entry count scales with input size; a bound keeps each
			// execution fast without narrowing the grammar coverage.
			t.Skip()
		}
		m, err := Read(bytes.NewReader(data)) // must not panic
		ref, rerr := readReference(bytes.NewReader(data))
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("parsers disagree: %v, reference %v\ninput: %q", err, rerr, data)
		}
		if err != nil {
			return
		}
		if d := csrDiff(m, ref); d != "" {
			t.Fatalf("parsers disagree: %s\ninput: %q", d, data)
		}
		if m.NRows > 1<<17 || m.NCols > 1<<17 {
			// A giant-but-in-cap header (parser-side allocation is
			// bounded by maxDim) adds nothing to grammar coverage;
			// skip the O(rows) validate/write/reparse loops so the
			// fuzz budget explores the format instead.
			t.Skip()
		}
		// Accepted input: the parsed matrix must be a structurally
		// valid CSR…
		if verr := m.Validate(); verr != nil {
			t.Fatalf("accepted input produced invalid CSR: %v\ninput: %q", verr, data)
		}
		// …and must round-trip through write+reparse exactly: same
		// shape, same structure, same values.
		var buf strings.Builder
		if werr := Write(&buf, m); werr != nil {
			t.Fatalf("write failed for accepted input: %v", werr)
		}
		m2, rerr := Read(strings.NewReader(buf.String()))
		if rerr != nil {
			t.Fatalf("reparse failed: %v\nwritten: %q", rerr, buf.String())
		}
		if m2.NRows != m.NRows || m2.NCols != m.NCols || m2.NNZ() != m.NNZ() {
			t.Fatalf("round trip changed shape: %dx%d/%d -> %dx%d/%d",
				m.NRows, m.NCols, m.NNZ(), m2.NRows, m2.NCols, m2.NNZ())
		}
		for i := range m.RowPtr {
			if m.RowPtr[i] != m2.RowPtr[i] {
				t.Fatalf("round trip changed rowptr[%d]", i)
			}
		}
		for i := range m.ColInd {
			if m.ColInd[i] != m2.ColInd[i] {
				t.Fatalf("round trip changed colind[%d]", i)
			}
			if !valsEqual(m.Val[i], m2.Val[i]) {
				t.Fatalf("round trip changed val[%d]: %g -> %g", i, m.Val[i], m2.Val[i])
			}
		}
	})
}

// csrDiff describes the first difference between a and b — dimensions,
// structure, value bits or symmetry kind — or returns "".
func csrDiff(a, b *matrix.CSR) string {
	switch {
	case a.NRows != b.NRows || a.NCols != b.NCols:
		return fmt.Sprintf("shape %dx%d vs %dx%d", a.NRows, a.NCols, b.NRows, b.NCols)
	case len(a.RowPtr) != len(b.RowPtr) || len(a.ColInd) != len(b.ColInd) || len(a.Val) != len(b.Val):
		return fmt.Sprintf("lengths %d/%d/%d vs %d/%d/%d",
			len(a.RowPtr), len(a.ColInd), len(a.Val), len(b.RowPtr), len(b.ColInd), len(b.Val))
	case a.Sym != b.Sym:
		return fmt.Sprintf("Sym %v vs %v", a.Sym, b.Sym)
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return fmt.Sprintf("rowptr[%d] %d vs %d", i, a.RowPtr[i], b.RowPtr[i])
		}
	}
	for i := range a.ColInd {
		if a.ColInd[i] != b.ColInd[i] {
			return fmt.Sprintf("colind[%d] %d vs %d", i, a.ColInd[i], b.ColInd[i])
		}
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return fmt.Sprintf("val[%d] bits %#x vs %#x", i, math.Float64bits(a.Val[i]), math.Float64bits(b.Val[i]))
		}
	}
	return ""
}
