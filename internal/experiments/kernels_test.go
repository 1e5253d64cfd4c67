package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/kernels"
)

func TestKernelsExperiment(t *testing.T) {
	if raceEnabled {
		// The race detector slows the pure-Go oracles far more than the
		// assembly bodies (instrumented loads vs none), so the speedup
		// column measures instrumentation, not code generation. The
		// un-instrumented gate runs in CI's kernels smoke job.
		t.Skip("scalar-vs-asm timing is meaningless under the race detector")
	}
	res, err := Kernels(Config{Scale: 0.03, Matrices: []string{"poisson3Db", "small-dense"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ISA != kernels.ISA() {
		t.Fatalf("result ISA %q, dispatch says %q", res.ISA, kernels.ISA())
	}
	// 2 matrices x (csr-vec8, delta, sellcs-c8, block4, block8).
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Scalar <= 0 || row.Asm <= 0 {
			t.Fatalf("degenerate row: %+v", row)
		}
		if res.ISA == "scalar" && row.Speedup == 0 {
			t.Fatalf("scalar build lost the speedup column: %+v", row)
		}
	}

	// The JSON form is the BENCH_kernels.json artifact: it must
	// round-trip and carry the gate's inputs.
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back KernelsResult
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.ISA != res.ISA || len(back.Rows) != len(res.Rows) {
		t.Fatalf("JSON round trip drifted: %+v", back)
	}

	tbl := res.Table().String()
	for _, want := range []string{"csr-vec8", "delta", "sellcs-c8", "block4", "block8", res.ISA} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
}
