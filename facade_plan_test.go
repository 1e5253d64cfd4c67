package spmvtuner

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/plan"
)

// TestTuneWarmStartsInProcess: the default in-memory plan store must
// make a second Tune of a fingerprint-identical matrix warm — same
// decision, no re-classification.
func TestTuneWarmStartsInProcess(t *testing.T) {
	tu := NewTuner()
	defer tu.Close()

	m := buildRandom(3000, 3000, 6, 31)
	cold := tu.Tune(m)
	if cold.Info().Warm {
		t.Fatal("first Tune claims warm")
	}
	if cold.Info().Fingerprint == "" {
		t.Fatal("tuned plan not fingerprint-bound")
	}

	// Same structure, different values: plans carry over by design.
	reval := buildRandom(3000, 3000, 6, 31)
	for i := range reval.csr.Val {
		reval.csr.Val[i] *= -2
	}
	warm := tu.Tune(reval)
	if !warm.Info().Warm {
		t.Fatal("second Tune of a fingerprint-identical matrix was cold")
	}
	if warm.Optimizations() != cold.Optimizations() || warm.Classes() != cold.Classes() {
		t.Fatalf("warm decision drifted: %q/%q vs %q/%q",
			warm.Optimizations(), warm.Classes(), cold.Optimizations(), cold.Classes())
	}

	// The warm kernel must still compute correctly.
	x := make([]float64, reval.Cols())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	want := make([]float64, reval.Rows())
	reval.MulVec(x, want)
	got := make([]float64, reval.Rows())
	warm.MulVec(x, got)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("warm kernel wrong at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestTuneWarmStartsAcrossProcesses: WithPlanStore persistence — a
// fresh Tuner over the same directory (a process restart) warm-starts
// from disk.
func TestTuneWarmStartsAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	m := buildRandom(2000, 2000, 5, 33)

	tu1 := NewTuner(WithPlanStore(dir))
	cold := tu1.Tune(m)
	if cold.Info().Warm {
		t.Fatal("first Tune claims warm")
	}
	if err := tu1.Close(); err != nil {
		t.Fatal(err)
	}

	// The store directory holds one JSON entry for the decision.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !strings.HasSuffix(ents[0].Name(), ".json") {
		t.Fatalf("unexpected store layout: %v", ents)
	}

	tu2 := NewTuner(WithPlanStore(dir))
	defer tu2.Close()
	warm := tu2.Tune(buildRandom(2000, 2000, 5, 33))
	if !warm.Info().Warm {
		t.Fatal("fresh tuner over the same store was cold")
	}
	if warm.Optimizations() != cold.Optimizations() {
		t.Fatalf("persisted decision drifted: %q vs %q", warm.Optimizations(), cold.Optimizations())
	}
}

// TestWithPlanStoreBadDir: an unusable store directory must surface
// at construction, not corrupt tuning later.
func TestWithPlanStoreBadDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unusable store dir did not panic")
		}
	}()
	NewTuner(WithPlanStore(filepath.Join(file, "sub")))
}

// TestTunerConcurrentTuneAndMulVec is the facade's concurrency
// guarantee under -race: goroutines Tune distinct matrices on one
// shared Tuner while others multiply with already-tuned kernels.
func TestTunerConcurrentTuneAndMulVec(t *testing.T) {
	tu := NewTuner()
	defer tu.Close()

	warmM := buildRandom(2500, 2500, 5, 40)
	warmK := tu.Tune(warmM)
	x := make([]float64, warmM.Cols())
	for i := range x {
		x[i] = float64(i%9) - 4
	}
	want := make([]float64, warmM.Rows())
	warmM.MulVec(x, want)

	// A matrix whose symmetry is still unresolved, tuned concurrently
	// by several goroutines: the cached symmetry detection and the
	// store write must both be serialized by the tuner.
	shared := buildRandom(1800, 1800, 4, 41)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() { // shared-matrix tuners: same *Matrix, same Tuner
			defer wg.Done()
			k := tu.Tune(shared)
			if k.Info().Fingerprint == "" {
				t.Error("shared-matrix Tune lost its fingerprint")
			}
		}()
		wg.Add(1)
		go func(g int) { // tuners: distinct matrices, one shared Tuner
			defer wg.Done()
			m := buildRandom(1500+100*g, 1500+100*g, 4, int64(50+g))
			k := tu.Tune(m)
			xv := make([]float64, m.Cols())
			for i := range xv {
				xv[i] = 1
			}
			ref := make([]float64, m.Rows())
			m.MulVec(xv, ref)
			y := make([]float64, m.Rows())
			k.MulVec(xv, y)
			for i := range ref {
				if math.Abs(ref[i]-y[i]) > 1e-9*(1+math.Abs(ref[i])) {
					t.Errorf("tuner %d: y[%d] = %g, want %g", g, i, y[i], ref[i])
					return
				}
			}
		}(g)
		wg.Add(1)
		go func() { // multipliers: the already-tuned kernel serves throughout
			defer wg.Done()
			y := make([]float64, warmM.Rows())
			for it := 0; it < 3; it++ {
				warmK.MulVec(x, y)
			}
			for i := range want {
				if math.Abs(want[i]-y[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Errorf("mulvec: y[%d] = %g, want %g", i, y[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCloseFlushesPlanStore: Close must leave every tuned decision
// durable on disk, and double-Close must stay clean.
func TestCloseFlushesPlanStore(t *testing.T) {
	dir := t.TempDir()
	tu := NewTuner(WithPlanStore(dir))
	tu.Tune(buildRandom(800, 800, 4, 60))
	tu.Tune(buildRandom(900, 900, 4, 61))
	if err := tu.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tu.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("store holds %d entries, want 2", len(ents))
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// TestLegacyHostKnobPlanWarmStarts: testdata/legacy-host-knobs holds a
// host plan an earlier release stored for SuiteMatrix("ASIC_680k",
// 0.05) with vec+prefetch+unroll, three knobs the host serves with one
// gather body. Tune warm-starts from it, reports the canonical form,
// and computes MulVec's product.
func TestLegacyHostKnobPlanWarmStarts(t *testing.T) {
	k := tuneFromStoredPlan(t, "legacy-host-knobs", "v1-30000x30000-229980-gen-98d6d2f4f0599b84.host.v1.json",
		[]string{`"prefetch": true`, `"unroll": true`}, "ASIC_680k", 0.05)
	if got := k.Info().Optimizations; got != "vec@static-nnz" {
		t.Fatalf("Info().Optimizations = %q, want the canonical vec@static-nnz", got)
	}
}

// TestLegacyHostDeltaPlanWarmStarts: testdata/legacy-host-delta holds
// the compress@static-nnz plan an earlier release's host-model tuner
// stored for SuiteMatrix("human_gene1", 1), written before every Delta
// plan ran the vector decoder. Tune warm-starts from it under the
// canonical compress+vec form, binds the dispatched decoder, and
// computes MulVec's product.
func TestLegacyHostDeltaPlanWarmStarts(t *testing.T) {
	k := tuneFromStoredPlan(t, "legacy-host-delta", "v1-14000x14000-2313709-gen-3e65ec56ee74c7c8.host.v1.json",
		[]string{`"compress": true`}, "human_gene1", 1)
	if got := k.Info().Optimizations; got != "compress+vec@static-nnz" {
		t.Fatalf("Info().Optimizations = %q, want the canonical compress+vec@static-nnz", got)
	}
	named, ok := k.prep.(interface{ Kernel() string })
	if !ok {
		t.Fatalf("prepared kernel %T does not name its body", k.prep)
	}
	if got, want := named.Kernel(), kernels.DeltaVariantName(); got != want {
		t.Fatalf("Kernel() = %q, want the dispatched delta decoder %q", got, want)
	}
}

// TestLegacyHostSplitPlanWarmStarts: testdata/legacy-host-split holds
// the vec+split@static-nnz plan an earlier release's host tuner stored
// for SuiteMatrix("rajat30", 0.05) under WithThresholds(1000, 1.1),
// written while the host still had a decomposed Split kernel. Tune
// warm-starts from it under the canonical vec@auto form and binds the
// dispatched gather body.
func TestLegacyHostSplitPlanWarmStarts(t *testing.T) {
	k := tuneFromStoredPlan(t, "legacy-host-split", "v1-30000x30000-269964-gen-f7bce2bcfe60a922.host.v1.json",
		[]string{`"format": "split-csr"`, `"split": true`}, "rajat30", 0.05)
	if got := k.Info().Optimizations; got != "vec@auto" {
		t.Fatalf("Info().Optimizations = %q, want the canonical vec@auto", got)
	}
	named, ok := k.prep.(interface{ Kernel() string })
	if !ok {
		t.Fatalf("prepared kernel %T does not name its body", k.prep)
	}
	if got, want := named.Kernel(), kernels.VariantName(true); got != want {
		t.Fatalf("Kernel() = %q, want the dispatched gather body %q", got, want)
	}
}

// tuneFromStoredPlan copies the stored plan testdata/dir/file, which
// must contain every knob string in knobs, into a fresh plan store,
// tunes SuiteMatrix(name, scale) with it, and checks that the tune
// was warm and that the kernel computes MulVec's product.
func tuneFromStoredPlan(t *testing.T, dir, file string, knobs []string, name string, scale float64) *Tuned {
	t.Helper()
	stored, err := os.ReadFile(filepath.Join("testdata", dir, file))
	if err != nil {
		t.Fatal(err)
	}
	for _, knob := range knobs {
		if !strings.Contains(string(stored), knob) {
			t.Fatalf("setup: the stored plan must carry %s", knob)
		}
	}
	store := t.TempDir()
	if err := os.WriteFile(filepath.Join(store, file), stored, 0o644); err != nil {
		t.Fatal(err)
	}
	tu := NewTuner(WithPlanStore(store))
	t.Cleanup(func() { tu.Close() })
	m, err := SuiteMatrix(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	k := tu.Tune(m)
	if !k.Info().Warm {
		t.Fatal("the stored host plan did not warm-start")
	}
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = 0.5 + 0.1*float64(i%7)
	}
	want, got := make([]float64, m.Rows()), make([]float64, m.Rows())
	m.MulVec(x, want)
	k.MulVec(x, got)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("y[%d] = %.17g, want %.17g", i, got[i], want[i])
		}
	}
	return k
}

// TestLegacyPlanMigratesToCurrentFingerprint: a warm start from a plan
// stored under its version-1 fingerprint refiles it. The version-1
// file is gone, the store holds the plan under the fingerprint Tune
// reports, and a second Tuner warm-starts from that file.
func TestLegacyPlanMigratesToCurrentFingerprint(t *testing.T) {
	const file = "v1-30000x30000-229980-gen-98d6d2f4f0599b84.host.v1.json"
	stored, err := os.ReadFile(filepath.Join("testdata", "legacy-host-knobs", file))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, file), stored, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := SuiteMatrix("ASIC_680k", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tu := NewTuner(WithPlanStore(dir))
	k := tu.Tune(m)
	if err := tu.Close(); err != nil {
		t.Fatal(err)
	}
	info := k.Info()
	if !info.Warm {
		t.Fatal("the version-1 plan did not warm-start")
	}
	if _, err := os.Stat(filepath.Join(dir, file)); !os.IsNotExist(err) {
		t.Fatalf("the version-1 file survived the migration: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, info.Fingerprint+".host.v1.json"))
	if err != nil {
		t.Fatalf("no plan stored under the current fingerprint: %v", err)
	}
	if pl, err := plan.Decode(data); err != nil {
		t.Fatalf("migrated plan does not decode: %v", err)
	} else if pl.Fingerprint != info.Fingerprint {
		t.Fatalf("migrated plan fingerprint %q, want %q", pl.Fingerprint, info.Fingerprint)
	}

	again := NewTuner(WithPlanStore(dir))
	defer again.Close()
	k2 := again.Tune(m)
	if got := k2.Info(); !got.Warm || got.Fingerprint != info.Fingerprint || got.Optimizations != info.Optimizations {
		t.Fatalf("second Tuner: warm=%v %s %s, want a warm start from %s %s",
			got.Warm, got.Fingerprint, got.Optimizations, info.Fingerprint, info.Optimizations)
	}
}
