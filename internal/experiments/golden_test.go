package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/report"
)

var update = flag.Bool("update", false, "rewrite the golden outputs under testdata/golden")

// golden is the configuration the modeled outputs are pinned at: small
// enough that all four experiments run in a few seconds.
var golden = Config{Scale: 0.02, CorpusSize: 40}

// rendered returns an experiment's table as spmvbench prints it.
func rendered[R interface{ Table() *report.Table }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Table().String(), nil
}

// TestGoldenModeledOutputs diffs the modeled reproduction's Fig 1,
// Fig 3, Table IV, Table V and the three Fig 7 panels against the
// outputs checked in under
// testdata/golden, so a change to the cost model, the bounds, the
// classifiers or the optimizers shows up as a reviewed diff of those
// files. Rewrite them with
//
//	go test ./internal/experiments -run TestGoldenModeledOutputs -update
func TestGoldenModeledOutputs(t *testing.T) {
	type goldenCase struct {
		name string
		run  func() (string, error)
	}
	cases := []goldenCase{
		{"fig1", func() (string, error) { return rendered(Fig1(golden)) }},
		{"fig3", func() (string, error) { return rendered(Fig3(golden)) }},
		{"table4", func() (string, error) { return rendered(Table4(golden), nil) }},
		{"table5", func() (string, error) { return rendered(Table5(golden)) }},
	}
	for _, code := range []string{"knc", "knl", "bdw"} {
		cases = append(cases, goldenCase{"fig7-" + code, func() (string, error) { return rendered(Fig7(code, golden)) }})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", tc.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s (run with -update to accept):\n%s", tc.name, path, lineDiff(string(want), got))
			}
		})
	}
}

// lineDiff lists the lines that differ between want and got, by line
// number: enough to read a model change without an external diff tool.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var out strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&out, "line %d:\n- %s\n+ %s\n", i+1, wl, gl)
		}
	}
	return out.String()
}
