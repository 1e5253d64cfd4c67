package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/kernels"
)

func TestKernelsExperiment(t *testing.T) {
	// Deterministic assertions only: the wall-clock gate (Gate) is
	// applied by spmvbench -exp kernels, not here, where a parallel
	// go test ./... on a small host can push any asm row below it.
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

// TestKernelsGate checks the gate on fixed rows: it fails a row below
// 95% of its oracle, passes one within the slack, and is vacuous when
// no assembly was dispatched.
func TestKernelsGate(t *testing.T) {
	within := KernelRow{Matrix: "a", Kernel: "csr-vec8", Scalar: 1, Asm: 0.96, Speedup: 0.96}
	below := KernelRow{Matrix: "b", Kernel: "delta", Scalar: 1, Asm: 0.9, Speedup: 0.9}
	if err := (&KernelsResult{ISA: "avx2", Rows: []KernelRow{within}}).Gate(); err != nil {
		t.Fatalf("row within slack failed the gate: %v", err)
	}
	err := (&KernelsResult{ISA: "avx2", Rows: []KernelRow{within, below}}).Gate()
	if err == nil || !strings.Contains(err.Error(), "delta on b") {
		t.Fatalf("row below slack: err = %v", err)
	}
	if err := (&KernelsResult{ISA: "scalar", Rows: []KernelRow{below}}).Gate(); err != nil {
		t.Fatalf("scalar build gated: %v", err)
	}
}
