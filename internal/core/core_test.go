package core

import (
	"reflect"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/classify"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/features"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/ml"
	"github.com/sparsekit/spmvtuner/internal/plan"
	"github.com/sparsekit/spmvtuner/internal/planstore"
	"github.com/sparsekit/spmvtuner/internal/sim"
)

func TestAnalyzeProfileGuided(t *testing.T) {
	p := New(sim.New(machine.KNC()))
	m := gen.UniformRandom(400000, 9, 1)
	a := p.Analyze(m)
	if !a.Classes.Has(classify.ML) {
		t.Fatalf("uniform random should include ML, got %v", a.Classes)
	}
	if !a.Plan.Opt.Prefetch {
		t.Fatalf("ML must select prefetch: %v", a.Plan.Opt)
	}
	if a.Optimized.Gflops <= a.Bounds.PCSR {
		t.Fatalf("optimization did not improve: %.2f vs %.2f", a.Optimized.Gflops, a.Bounds.PCSR)
	}
	if a.Features.NNZAvg <= 0 {
		t.Fatal("features missing")
	}
}

func TestFeatureGuidedModeUsesTree(t *testing.T) {
	names := features.ONNZSubset()
	labels := classify.NewSet(classify.IMB).Labels()
	ds, err := ml.NewDataset([]ml.Sample{
		{X: make([]float64, len(names)), Y: labels},
		{X: make([]float64, len(names)), Y: labels},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := New(sim.New(machine.KNC()))
	p.Mode = FeatureGuided
	p.Tree = ml.Fit(ds, ml.TreeParams{})
	p.TreeFeatures = names

	m := gen.FewDenseRows(100000, 5, 3, 60000, 2)
	a := p.Analyze(m)
	// The constant tree always says IMB; the skewed matrix then gets
	// the decomposition.
	if !a.Classes.Has(classify.IMB) || a.Plan.Opt.Format != ex.FormatSplit {
		t.Fatalf("feature-guided path broken: %v / %v", a.Classes, a.Plan.Opt)
	}
}

func TestFeatureGuidedWithoutTreeFallsBack(t *testing.T) {
	p := New(sim.New(machine.KNC()))
	p.Mode = FeatureGuided // no tree installed
	m := gen.UniformRandom(200000, 8, 3)
	a := p.Analyze(m)
	if a.Plan.Optimizer != "profile-guided" {
		t.Fatalf("expected profile-guided fallback, got %s", a.Plan.Optimizer)
	}
}

func TestPlanOnlyMatchesAnalyze(t *testing.T) {
	p := New(sim.New(machine.KNL()))
	m := gen.Banded(300000, 8, 0.9, 4)
	plan := p.PlanOnly(m)
	a := p.Analyze(m)
	if plan.Opt != a.Plan.Opt {
		t.Fatalf("PlanOnly %v != Analyze plan %v", plan.Opt, a.Plan.Opt)
	}
}

// countingExec counts Run invocations — classification and candidate
// sweeps both go through Run, so a zero delta proves a warm start did
// neither.
type countingExec struct {
	ex.Executor
	runs int
}

func (c *countingExec) Run(cfg ex.Config) ex.Result {
	c.runs++
	return c.Executor.Run(cfg)
}

func TestPrepareWarmStartsFromStore(t *testing.T) {
	ce := &countingExec{Executor: sim.New(machine.KNL())}
	p := New(ce)
	p.Store = planstore.New(8)
	m := gen.UniformRandom(200000, 8, 5)

	pl1, _, warm1 := p.Prepare(m)
	if warm1 {
		t.Fatal("first Prepare claims warm")
	}
	coldRuns := ce.runs
	if coldRuns == 0 {
		t.Fatal("cold Prepare measured nothing")
	}
	if pl1.Fingerprint == "" || pl1.Version != plan.CurrentVersion || pl1.Machine != "knl" {
		t.Fatalf("plan not bound: %+v", pl1)
	}
	if pl1.PredictedGflops <= 0 {
		t.Fatalf("miss did not record a rate: %+v", pl1)
	}

	pl2, _, warm2 := p.Prepare(m)
	if !warm2 {
		t.Fatal("second Prepare missed the store")
	}
	if ce.runs != coldRuns {
		t.Fatalf("warm Prepare ran %d measurements", ce.runs-coldRuns)
	}
	if !reflect.DeepEqual(pl1, pl2) {
		t.Fatalf("warm plan differs:\n cold %+v\n warm %+v", pl1, pl2)
	}

	// A structurally identical matrix with different values reuses the
	// plan; a structurally different one does not.
	reval := m.Clone()
	for i := range reval.Val {
		reval.Val[i] *= 3
	}
	reval.Sym = matrix.SymUnknown
	if _, _, warm := p.Prepare(reval); !warm {
		t.Fatal("re-valued matrix missed the store")
	}
	other := gen.UniformRandom(200001, 8, 5)
	if _, _, warm := p.Prepare(other); warm {
		t.Fatal("different structure hit the store")
	}
}

func TestPrepareDropsStaleStoreEntry(t *testing.T) {
	ce := &countingExec{Executor: sim.New(machine.KNL())}
	p := New(ce)
	p.Store = planstore.New(8)
	m := gen.UniformRandom(150000, 7, 9)

	// Poison the store with a symmetric-storage plan for this general
	// matrix (as if the matrix was re-valued from symmetric to not).
	key := p.storeKey(matrix.Fingerprint(m))
	bad := plan.Plan{
		Version:     plan.CurrentVersion,
		Fingerprint: key.Fingerprint,
		Machine:     key.Machine,
		Opt:         ex.Optim{Format: ex.FormatSSS},
		Library:     plan.Library,
	}
	if err := p.Store.Put(key, bad); err != nil {
		t.Fatal(err)
	}

	pl, _, warm := p.Prepare(m)
	if warm {
		t.Fatal("stale symmetric plan served for a general matrix")
	}
	if pl.Opt.Format == ex.FormatSSS {
		t.Fatalf("retune kept the stale knob set: %+v", pl)
	}
	// The stale entry must be gone: the retuned plan now occupies the
	// slot.
	if got, ok := p.Store.Get(key); !ok || got.Opt.Format == ex.FormatSSS {
		t.Fatalf("store not healed: ok=%v got=%+v", ok, got)
	}
}

// preparedCountingExec makes countingExec a PreparedExecutor: Prepare
// hands back a nil kernel (tests never multiply through it), but its
// presence selects the measured-executor paths in core.Prepare.
type preparedCountingExec struct {
	countingExec
}

func (p *preparedCountingExec) Prepare(m *matrix.CSR, o ex.Optim) ex.PreparedKernel { return nil }
func (p *preparedCountingExec) Close() error                                        { return nil }

// TestPrepareRemeasuresOnISAChange: a store hit whose KernelISA is not
// the running host's keeps its knob set (still warm — no classify, no
// sweep) but re-measures the rate once and heals the stored entry —
// the recorded Gflops were earned by different kernel bodies.
func TestPrepareRemeasuresOnISAChange(t *testing.T) {
	ce := &preparedCountingExec{countingExec{Executor: sim.New(machine.KNL())}}
	p := New(ce)
	p.Store = planstore.New(8)
	m := gen.UniformRandom(160000, 8, 11)

	pl1, _, _ := p.Prepare(m)
	if pl1.KernelISA == "" {
		t.Fatalf("bind did not stamp the kernel ISA: %+v", pl1)
	}
	key := p.storeKey(pl1.Fingerprint)

	// Simulate a plan tuned on other hardware: same knobs, foreign ISA.
	foreign := pl1
	foreign.KernelISA = "other-isa"
	foreign.MeasuredGflops = 123.456
	if err := p.Store.Put(key, foreign); err != nil {
		t.Fatal(err)
	}
	baseRuns := ce.runs

	pl2, _, warm := p.Prepare(m)
	if !warm {
		t.Fatal("ISA mismatch must stay a warm hit (knobs survive)")
	}
	if pl2.KernelISA != pl1.KernelISA {
		t.Fatalf("ISA not restamped: %q", pl2.KernelISA)
	}
	if pl2.Opt != pl1.Opt {
		t.Fatalf("knobs changed on ISA migration: %+v vs %+v", pl2.Opt, pl1.Opt)
	}
	if got := ce.runs - baseRuns; got != 1 {
		t.Fatalf("ISA migration measured %d times, want exactly 1", got)
	}
	if pl2.MeasuredGflops == 123.456 {
		t.Fatal("stale foreign rate survived the migration")
	}
	if healed, ok := p.Store.Get(key); !ok || healed.KernelISA != pl1.KernelISA {
		t.Fatalf("store not healed: ok=%v got=%+v", ok, healed)
	}

	// Same-ISA warm hits stay measurement-free.
	baseRuns = ce.runs
	if _, _, warm := p.Prepare(m); !warm || ce.runs != baseRuns {
		t.Fatalf("same-ISA warm hit ran %d measurements", ce.runs-baseRuns)
	}
}

func TestPrepareTwinGateTrustsConsistentPlan(t *testing.T) {
	// Exec and twin price with the same calibrated model, so the
	// stored prediction agrees with the local re-price and the warm
	// path survives the gate — with zero Exec measurements.
	ce := &countingExec{Executor: sim.New(machine.KNL())}
	p := New(ce)
	p.Store = planstore.New(8)
	p.Twin = sim.New(machine.KNL())
	m := gen.UniformRandom(180000, 8, 7)

	pl1, _, warm := p.Prepare(m)
	if warm {
		t.Fatal("first Prepare claims warm")
	}
	if pl1.PredictedGflops <= 0 {
		t.Fatal("twin did not stamp a prediction")
	}
	coldRuns := ce.runs

	pl2, _, warm := p.Prepare(m)
	if !warm {
		t.Fatal("consistent plan rejected by the twin gate")
	}
	if ce.runs != coldRuns {
		t.Fatalf("twin validation cost %d Exec measurements, want 0", ce.runs-coldRuns)
	}
	if !reflect.DeepEqual(pl1, pl2) {
		t.Fatalf("warm plan differs:\n cold %+v\n warm %+v", pl1, pl2)
	}
}

func TestPrepareTwinGateRejectsForeignPlan(t *testing.T) {
	ce := &countingExec{Executor: sim.New(machine.KNL())}
	p := New(ce)
	p.Store = planstore.New(8)
	p.Twin = sim.New(machine.KNL())
	m := gen.UniformRandom(160000, 6, 11)

	pl, _, _ := p.Prepare(m)
	key := p.storeKey(pl.Fingerprint)

	// Simulate a plan shipped from a much faster host: same structure,
	// same codename ("knl"), but a recorded prediction the local twin
	// cannot reproduce.
	foreign := pl
	foreign.PredictedGflops = pl.PredictedGflops * 10
	if err := p.Store.Put(key, foreign); err != nil {
		t.Fatal(err)
	}

	got, _, warm := p.Prepare(m)
	if warm {
		t.Fatal("foreign plan trusted despite a 10x prediction mismatch")
	}
	if got.PredictedGflops == foreign.PredictedGflops {
		t.Fatal("re-tune kept the foreign prediction")
	}
	// The store must be healed with the locally priced plan.
	if healed, ok := p.Store.Get(key); !ok || healed.PredictedGflops != got.PredictedGflops {
		t.Fatalf("store not healed: ok=%v %+v", ok, healed)
	}
}

func TestPrepareTwinGateLegacyPlansPass(t *testing.T) {
	// Plans tuned before the twin existed carry no prediction; the
	// gate must not force a re-tune for them.
	ce := &countingExec{Executor: sim.New(machine.KNL())}
	p := New(ce)
	p.Store = planstore.New(8)
	m := gen.UniformRandom(140000, 5, 13)

	pl, _, _ := p.Prepare(m)
	key := p.storeKey(pl.Fingerprint)
	legacy := pl
	legacy.PredictedGflops = 0
	if err := p.Store.Put(key, legacy); err != nil {
		t.Fatal(err)
	}
	p.Twin = sim.New(machine.KNL())
	if _, _, warm := p.Prepare(m); !warm {
		t.Fatal("legacy plan without a prediction must pass the gate")
	}
}
