package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTwinExperiment(t *testing.T) {
	if raceEnabled {
		// The race detector slows the SpMV kernels and the bandwidth
		// probes by different factors, so the calibration measures
		// instrumentation, not the host. The wall-clock accuracy gate
		// (TwinResult.Gate) runs in CI's twin smoke job.
		t.Skip("live calibration is meaningless under the race detector")
	}
	// Two matrices at tiny scale keep the calibration probes the
	// dominant cost; the full-suite accuracy run lives in CI's smoke.
	res, err := Twin(Config{Scale: 0.04, Matrices: []string{"poisson3Db", "small-dense"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.PredictedGflops <= 0 || row.MeasuredGflops <= 0 {
			t.Fatalf("degenerate row: %+v", row)
		}
		if row.RelErr < 0 {
			t.Fatalf("negative error: %+v", row)
		}
	}
	if res.MainGBs <= 0 || res.LLCGBs < res.MainGBs {
		t.Fatalf("calibration ceilings wrong: %+v", res)
	}
	if res.Threshold != TwinErrThreshold {
		t.Fatalf("threshold = %g, want %g", res.Threshold, TwinErrThreshold)
	}
	tab := res.Table().String()
	for _, tok := range []string{"predicted", "measured", "rel err", "mean relative error"} {
		if !strings.Contains(tab, tok) {
			t.Fatalf("table missing %q:\n%s", tok, tab)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result not JSON-serializable: %v", err)
	}
}

// TestTwinGate pins the accuracy gate spmvbench applies: a mean error
// at the threshold passes, one above it fails.
func TestTwinGate(t *testing.T) {
	r := &TwinResult{MeanRelErr: TwinErrThreshold, Threshold: TwinErrThreshold}
	if err := r.Gate(); err != nil {
		t.Fatalf("mean error at the threshold failed: %v", err)
	}
	r.MeanRelErr = 1.53
	if err := r.Gate(); err == nil || !strings.Contains(err.Error(), "153%") {
		t.Fatalf("mean error 153%% passed the gate: %v", err)
	}
}

func TestTwinExperimentUnknownMatrix(t *testing.T) {
	if _, err := Twin(Config{Scale: 0.04, Matrices: []string{"no-such-matrix"}}); err == nil {
		t.Fatal("empty selection accepted")
	}
}
