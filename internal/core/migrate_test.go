package core

import (
	"os"
	"path/filepath"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/plan"
	"github.com/sparsekit/spmvtuner/internal/planstore"
	"github.com/sparsekit/spmvtuner/internal/sim"
)

// countLegacyHashes makes legacyFingerprint count its calls for the
// rest of the test.
func countLegacyHashes(t *testing.T) *int {
	n := new(int)
	t.Cleanup(func() { legacyFingerprint = matrix.LegacyFingerprint })
	legacyFingerprint = func(m *matrix.CSR) string {
		*n++
		return matrix.LegacyFingerprint(m)
	}
	return n
}

// openStore opens a disk store over dir holding the given files.
func openStore(t *testing.T, dir string, files map[string][]byte) *planstore.Store {
	t.Helper()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := planstore.Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreMissComputesNoLegacyHash: a store miss computes the
// version-1 hash only when the directory holds a version-1 entry of
// the matrix's shape for the pipeline's machine and plan version.
// Files of another shape or another machine, or none at all, cost no
// second hash on either lookup path.
func TestStoreMissComputesNoLegacyHash(t *testing.T) {
	m := gen.UniformRandom(20000, 6, 3)
	shape := matrix.LegacyShape(m)
	for _, c := range []struct {
		name  string
		files []string
		want  int
	}{
		{"empty", nil, 0},
		{"other-machine", []string{shape + "0123456789abcdef.bdw.v1.json"}, 0},
		{"other-shape", []string{"v1-5x5-7-gen-0123456789abcdef.knl.v1.json"}, 0},
		{"other-version", []string{shape + "0123456789abcdef.knl.v9.json"}, 0},
		{"same-shape", []string{shape + "0123456789abcdef.knl.v1.json"}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := countLegacyHashes(t)
			files := map[string][]byte{}
			for _, f := range c.files {
				files[f] = []byte("{}")
			}
			p := New(sim.New(machine.KNL()))
			p.Store = openStore(t, t.TempDir(), files)
			if _, _, warm := p.Prepare(m); warm {
				t.Fatal("Prepare warm-started from a store without m's plan")
			}
			if *n != c.want {
				t.Fatalf("Prepare computed %d legacy hashes, want %d", *n, c.want)
			}
			// Prepare stored m's plan under its current key, so PriceOn
			// hits it and hashes nothing more.
			p.PriceOn(sim.New(machine.KNL()), m)
			if *n != c.want {
				t.Fatalf("PriceOn computed %d more legacy hashes", *n-c.want)
			}
			for _, f := range c.files {
				if _, err := os.Stat(filepath.Join(p.Store.Dir(), f)); err != nil {
					t.Fatalf("a file that is not m's plan was touched: %v", err)
				}
			}
		})
	}
}

// legacyPlan stores pl under m's version-1 key in a fresh directory
// and returns the directory.
func legacyPlan(t *testing.T, p *Pipeline, m *matrix.CSR, opt ex.Optim) string {
	t.Helper()
	dir := t.TempDir()
	s, err := planstore.Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	old := p.storeKey(matrix.LegacyFingerprint(m))
	pl := plan.Plan{
		Version: old.Version, Fingerprint: old.Fingerprint, Machine: old.Machine,
		Optimizer: "profile-guided", Opt: opt, Library: plan.Library,
	}
	if err := s.Put(old, pl); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestPrepareMigratesLegacyPlan: a plan filed under the version-1
// fingerprint warm-starts Prepare and PriceOn with no measurement, is
// refiled under the current fingerprint and loses its old file; a
// stale one is deleted and re-tuned.
func TestPrepareMigratesLegacyPlan(t *testing.T) {
	m := gen.UniformRandom(20000, 6, 3)
	want := ex.Optim{Vectorize: true, Prefetch: true}
	for _, price := range []bool{false, true} {
		ce := &countingExec{Executor: sim.New(machine.KNL())}
		p := New(ce)
		dir := legacyPlan(t, p, m, want)
		p.Store = openStore(t, dir, nil)
		var pl plan.Plan
		if price {
			pl, _ = p.PriceOn(sim.New(machine.KNL()), m)
		} else {
			var warm bool
			if pl, _, warm = p.Prepare(m); !warm {
				t.Fatal("the version-1 plan did not warm-start Prepare")
			}
		}
		if ce.runs != 0 || pl.Opt != want {
			t.Fatalf("price=%v: %d measurements, plan %v; want 0 and the stored %v", price, ce.runs, pl.Opt, want)
		}
		fp := matrix.Fingerprint(m)
		if pl.Fingerprint != fp {
			t.Fatalf("migrated plan fingerprint %s, want %s", pl.Fingerprint, fp)
		}
		ents, _ := os.ReadDir(dir)
		if len(ents) != 1 || ents[0].Name() != fp+".knl.v1.json" {
			t.Fatalf("price=%v: store holds %v, want only the plan under %s", price, ents, fp)
		}
	}

	// A version-1 plan that fails validation (symmetric storage for a
	// general matrix) is deleted without being refiled: PriceOn, which
	// writes nothing itself, leaves an empty store, and Prepare tunes
	// cold.
	stale := ex.Optim{Format: ex.FormatSSS}
	p := New(sim.New(machine.KNL()))
	dir := legacyPlan(t, p, m, stale)
	p.Store = openStore(t, dir, nil)
	if pl, _ := p.PriceOn(sim.New(machine.KNL()), m); pl.Opt.Format == ex.FormatSSS {
		t.Fatalf("PriceOn priced the stale version-1 plan %v", pl.Opt)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("store holds %v after PriceOn met a stale version-1 plan, want nothing", ents)
	}
	dir = legacyPlan(t, p, m, stale)
	p.Store = openStore(t, dir, nil)
	pl, _, warm := p.Prepare(m)
	if warm || pl.Opt.Format == ex.FormatSSS {
		t.Fatalf("stale version-1 plan served: warm=%v %v", warm, pl.Opt)
	}
	if _, err := os.Stat(filepath.Join(dir, matrix.LegacyFingerprint(m)+".knl.v1.json")); !os.IsNotExist(err) {
		t.Fatalf("stale version-1 file survived: %v", err)
	}
}
