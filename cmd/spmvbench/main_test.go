package main

import (
	"strings"
	"testing"
)

func TestUnknownMatrixRejectedBeforeAnyExperiment(t *testing.T) {
	for _, exp := range []string{"reuse", "fig1", "sellcs", "serve", "twin"} {
		err := run([]string{"-exp", exp, "-scale", "0.01", "-matrix", "poisson3Db,no-such-matrix"})
		if err == nil || !strings.Contains(err.Error(), `"no-such-matrix"`) {
			t.Errorf("-exp %s: err = %v, want unknown -matrix", exp, err)
		}
	}
	// Suite names, symmetric ones included, pass the check and reach
	// the experiment switch.
	err := run([]string{"-exp", "no-such-exp", "-matrix", "poisson3Db,lap3d"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v, want unknown experiment", err)
	}
}
