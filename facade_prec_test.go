package spmvtuner_test

// Facade-level mixed-precision coverage: the accuracy budget is the
// only door into reduced-precision storage, the reported precision is
// the one that executes, the tuned kernel honors the documented error
// bound, a reduced plan warm-starts across processes through the
// on-disk plan store, and values float32 cannot hold run f64.

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/sparsekit/spmvtuner"
	"github.com/sparsekit/spmvtuner/internal/plan"
)

// bandedMB builds a wide-band matrix that the modeled Broadwell
// analysis classifies bandwidth bound (the symmetry facade test pins
// the same structure); values and probe vectors stay positive so the
// reference result is its own componentwise error scale.
func bandedMB(n, hw int) *spmvtuner.Matrix {
	return buildSymmetric(n, hw)
}

func TestAnalyzePrecisionNeedsBudget(t *testing.T) {
	m := bandedMB(20000, 40)
	exact := spmvtuner.NewTuner(spmvtuner.OnPlatform("bdw")).Analyze(m)
	if exact.Precision != "f64" {
		t.Fatalf("unbudgeted analysis reports precision %q, want f64", exact.Precision)
	}
	a := spmvtuner.NewTuner(
		spmvtuner.OnPlatform("bdw"),
		spmvtuner.WithPrecisionBudget(1e-6),
	).Analyze(m)
	if a.Precision != "f32" {
		t.Fatalf("budgeted modeled-MB analysis reports precision %q, want f32 (%s)",
			a.Precision, a.Optimizations)
	}
}

func TestTunedReducedPrecisionWithinBudget(t *testing.T) {
	m := bandedMB(20000, 40)
	tuner := spmvtuner.NewTuner(
		spmvtuner.OnPlatform("bdw"),
		spmvtuner.WithPrecisionBudget(1e-6),
	)
	defer tuner.Close()
	tuned := tuner.Tune(m)
	if got := tuned.Info().Precision; got != "f32" {
		t.Fatalf("tuned precision %q, want f32", got)
	}
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = 0.5 + 0.1*float64(i%7)
	}
	want := make([]float64, m.Rows())
	m.MulVec(x, want)
	got := make([]float64, m.Rows())
	tuned.MulVec(x, got)
	for i := range want {
		// All summands are positive, so want[i] bounds the row's
		// magnitude scale; 2e-6 covers the storage bound plus
		// accumulation slack.
		if math.Abs(got[i]-want[i]) > 2e-6*want[i] {
			t.Fatalf("reduced kernel out of budget at %d: %.12g vs %.12g", i, got[i], want[i])
		}
	}
}

func TestReducedPlanWarmStartsAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	m := bandedMB(20000, 40)
	opts := func() []spmvtuner.Option {
		return []spmvtuner.Option{
			spmvtuner.OnPlatform("bdw"),
			spmvtuner.WithPrecisionBudget(1e-6),
			spmvtuner.WithPlanStore(dir),
		}
	}
	t1 := spmvtuner.NewTuner(opts()...)
	cold := t1.Tune(m)
	if cold.Info().Warm {
		t.Fatal("first Tune claims warm")
	}
	if cold.Info().Precision != "f32" {
		t.Fatalf("cold precision %q, want f32", cold.Info().Precision)
	}
	if err := t1.Close(); err != nil {
		t.Fatal(err)
	}

	t2 := spmvtuner.NewTuner(opts()...)
	defer t2.Close()
	warm := t2.Tune(m)
	if !warm.Info().Warm {
		t.Fatal("second process did not warm-start from the stored reduced plan")
	}
	if warm.Info().Precision != "f32" {
		t.Fatalf("warm precision %q, want f32", warm.Info().Precision)
	}
	if warm.Info().Optimizations != cold.Info().Optimizations {
		t.Fatalf("warm plan differs: %q vs %q", warm.Info().Optimizations, cold.Info().Optimizations)
	}
}

// TestWarmStartOnUnfitValuesRunsF64: a stored f32 plan warm-starts a
// matrix with the same structure but values float32 cannot hold; the
// kernel runs its f64 binding, reports f64, and never turns a finite
// value into ±Inf.
func TestWarmStartOnUnfitValuesRunsF64(t *testing.T) {
	dir := t.TempDir()
	opts := []spmvtuner.Option{
		spmvtuner.OnPlatform("bdw"),
		spmvtuner.WithPrecisionBudget(1e-6),
		spmvtuner.WithPlanStore(dir),
	}
	t1 := spmvtuner.NewTuner(opts...)
	if got := t1.Tune(bandedMB(20000, 40)).Info().Precision; got != "f32" {
		t.Fatalf("cold precision %q, want f32", got)
	}
	if err := t1.Close(); err != nil {
		t.Fatal(err)
	}

	t2 := spmvtuner.NewTuner(opts...)
	defer t2.Close()
	m := buildScaledSymmetric(20000, 40, 1e300)
	warm := t2.Tune(m)
	if !warm.Info().Warm {
		t.Fatal("same-structure matrix did not warm-start")
	}
	if got := warm.Info().Precision; got != "f64" {
		t.Fatalf("warm start on values beyond float32 reports %q, want f64", got)
	}
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = 0.5 + 0.1*float64(i%7)
	}
	want := make([]float64, m.Rows())
	m.MulVec(x, want)
	got := make([]float64, m.Rows())
	warm.MulVec(x, got)
	for i := range want {
		if math.IsInf(got[i], 0) || math.Abs(got[i]-want[i]) > 1e-12*want[i] {
			t.Fatalf("y[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestStoredRetiredPrecisionPlanRetunes: testdata/retired-precision
// holds a plan file an earlier release stored for bandedMB(20000, 40)
// with a precision this version no longer implements, under its
// version-1 fingerprint. The plan fails the strict decode, so Tune
// re-tunes cold, computes a correct product, deletes the stale file
// and stores a plan that decodes under the current fingerprint.
func TestStoredRetiredPrecisionPlanRetunes(t *testing.T) {
	const name = "v1-20000x20000-1618360-sym-59c958ed70debb4c.bdw.v1.json"
	stale, err := os.ReadFile(filepath.Join("testdata", "retired-precision", name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Decode(stale); err == nil {
		t.Fatal("setup: the retired plan must fail the strict decode")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	tuner := spmvtuner.NewTuner(
		spmvtuner.OnPlatform("bdw"),
		spmvtuner.WithPrecisionBudget(1e-6),
		spmvtuner.WithPlanStore(dir),
	)
	m := bandedMB(20000, 40)
	tuned := tuner.Tune(m)
	if tuned.Info().Warm {
		t.Fatal("a plan with a retired precision warm-started")
	}
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = 0.5 + 0.1*float64(i%7)
	}
	want := make([]float64, m.Rows())
	m.MulVec(x, want)
	got := make([]float64, m.Rows())
	tuned.MulVec(x, got)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 2e-6*want[i] {
			t.Fatalf("y[%d] = %.12g, want %.12g", i, got[i], want[i])
		}
	}
	if err := tuner.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
		t.Fatalf("the stale version-1 file survived the re-tune: %v", err)
	}
	fresh, err := os.ReadFile(filepath.Join(dir, tuned.Info().Fingerprint+".bdw.v1.json"))
	if err != nil {
		t.Fatalf("the re-tuned plan was not stored under its fingerprint: %v", err)
	}
	if pl, err := plan.Decode(fresh); err != nil {
		t.Fatalf("stored plan still fails to decode: %v", err)
	} else if pl.Fingerprint != tuned.Info().Fingerprint {
		t.Fatalf("stored plan fingerprint %q, want %q", pl.Fingerprint, tuned.Info().Fingerprint)
	}
}
