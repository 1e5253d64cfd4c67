package experiments

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func TestServeExperiment(t *testing.T) {
	res, err := Serve(Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matrix != serveDefaultMatrix {
		t.Fatalf("default matrix %q, want %q", res.Matrix, serveDefaultMatrix)
	}
	want := uint64(res.Clients * res.PerClient)
	if res.Sequential.Requests != want || res.Coalesced.Requests != want {
		t.Fatalf("request counts %d/%d, want %d", res.Sequential.Requests, res.Coalesced.Requests, want)
	}
	for _, row := range []ServeMode{res.Sequential, res.Coalesced} {
		if row.Plan != "vec@static-nnz" {
			t.Fatalf("%s served plan %q, want the seeded vec@static-nnz", row.Mode, row.Plan)
		}
	}
	if res.Sequential.MeanBatchWidth != 1 {
		t.Fatalf("sequential mean batch width %.2f, want exactly 1", res.Sequential.MeanBatchWidth)
	}
	if res.Coalesced.MeanBatchWidth < 1 || res.Coalesced.MeanBatchWidth > 8 {
		t.Fatalf("coalesced mean batch width %.2f out of [1,8]", res.Coalesced.MeanBatchWidth)
	}
	// The speedup gate is wall-clock and lives in spmvbench; the test
	// only needs the invariants above plus renderability. Speedup is
	// the median round's, and the rows are that round's runs.
	if res.Speedup <= 0 || res.MaxDiff > 1e-12 {
		t.Fatalf("speedup %.2f maxdiff %g", res.Speedup, res.MaxDiff)
	}
	if len(res.RoundSpeedups) != serveRounds {
		t.Fatalf("%d round speedups, want %d", len(res.RoundSpeedups), serveRounds)
	}
	sorted := slices.Sorted(slices.Values(res.RoundSpeedups))
	if res.Speedup != sorted[serveRounds/2] || res.Speedup != res.Coalesced.ReqPerSec/res.Sequential.ReqPerSec {
		t.Fatalf("speedup %.3f is not the median of %v read by the reported rows", res.Speedup, res.RoundSpeedups)
	}
	tab := res.Table().String()
	for _, tok := range []string{"sequential", "coalesced", "req/s", "speedup"} {
		if !strings.Contains(tab, tok) {
			t.Fatalf("table missing %q:\n%s", tok, tab)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result not JSON-serializable: %v", err)
	}
}

func TestServeExperimentBadMatrix(t *testing.T) {
	if _, err := Serve(Config{Scale: 0.05, Matrices: []string{"no-such-matrix"}}); err == nil {
		t.Fatal("unknown matrix accepted")
	}
	if _, err := Serve(Config{Scale: 0.05, Matrices: []string{"lap2d", "poisson3Db"}}); err == nil {
		t.Fatal("multiple matrices accepted")
	}
}
