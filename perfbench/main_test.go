package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// tinyScale shrinks every matrix so a workload runs in about a second.
const tinyScale = "0.02"

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// runTiny runs one workload at tinyScale and returns the decoded result
// line and the whole output.
func runTiny(t *testing.T, server, workload, trace string, corrupt func([]float64)) (result, string) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", trace,
		"-scale", tinyScale, "-out", t.TempDir(), "-spmvserve", server}
	if err := run(args, &out, corrupt); err != nil {
		t.Fatalf("%s trace=%s: %v\n%s", workload, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result: %v", workload, trace, err)
	}
	return res, out.String()
}

// buildServer builds cmd/spmvserve for the serve-http workload.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "spmvserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/spmvserve")
	cmd.Dir = ".."
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build spmvserve: %v\n%s", err, b)
	}
	return bin
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	server := buildServer(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for trace, defs := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			res, out := runTiny(t, server, w.Name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json defines %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%s: metric %s has unit %q, want %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				case trace == "0" && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want positive", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestUnknownNamesAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "solve", "-matrix", "no-such-matrix"},
		{"--workload", "tune-cold", "-matrix", "lap2d"}, // a suite matrix, but not this workload's
	} {
		var out bytes.Buffer
		if err := run(append(args, "-out", t.TempDir()), &out, nil); err == nil {
			t.Errorf("%v: no error", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q, want nothing", args, out.String())
		}
	}
}

func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	server := buildServer(t)
	for _, w := range []string{"tune-cold", "solve", "serve-http"} {
		res, _ := runTiny(t, server, w, "0", func(y []float64) { y[len(y)/2] += 1 })
		if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want failures counted", w, res.Correct, res.Attempted, res.Failed)
		}
	}
}
