package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnknownMatrixRejectedBeforeAnyExperiment(t *testing.T) {
	for _, exp := range []string{"spmm", "fig1", "sellcs", "serve", "twin"} {
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

func TestWriteJSON(t *testing.T) {
	if err := writeJSON("", struct{}{}); err != nil {
		t.Fatalf("empty path: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	v := struct {
		ISA  string    `json:"isa"`
		Rows []float64 `json:"rows"`
	}{"avx512", []float64{1.5, 2}}
	if err := writeJSON(path, v); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"isa\": \"avx512\",\n  \"rows\": [\n    1.5,\n    2\n  ]\n}\n"
	if string(got) != want {
		t.Fatalf("wrote %q, want %q", got, want)
	}
	if err := writeJSON(filepath.Join(dir, "missing", "out.json"), v); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if err := writeJSON(path, func() {}); err == nil {
		t.Fatal("marshaling a func succeeded")
	}
}
