package opt

// Planner tests for the reduced-precision selection. The acceptance
// contract is pinned in both directions on the analytic model: with a
// budget, the oracle folds a reduced variant into the plan exactly when
// the f64 winner is bandwidth bound, and never when compute (or
// latency) binds — halving the value stream cannot move a roofline term
// that contains no matrix bytes.

import (
	"testing"

	"github.com/sparsekit/spmvtuner/internal/classify"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/features"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/ml"
	"github.com/sparsekit/spmvtuner/internal/sim"
)

func TestPrecisionCandidatesByBudget(t *testing.T) {
	for _, budget := range []float64{0, 1e-13, 1e-9, 0.99 * formats.F32EntryBound} {
		if got := PrecisionCandidates(budget); len(got) != 0 {
			t.Fatalf("budget %g below the f32 bound must propose nothing, got %v", budget, got)
		}
	}
	for _, budget := range []float64{formats.F32EntryBound, 1e-3} {
		if got := PrecisionCandidates(budget); len(got) != 1 || got[0] != ex.PrecF32 {
			t.Fatalf("budget %g must propose f32, got %v", budget, got)
		}
	}
}

func TestPrecisionWithinBudgetProbe(t *testing.T) {
	m := gen.UniformRandom(500, 8, 3)
	if !PrecisionWithinBudget(m, ex.PrecF32, formats.F32EntryBound) {
		t.Fatal("f32 must fit its own bound on normal-range values")
	}
	// A budget below the documented bound can never be promised,
	// whatever the matrix measures.
	if PrecisionWithinBudget(m, ex.PrecF32, 1e-9) {
		t.Fatal("f32 must refuse a budget below its storage bound")
	}
	if PrecisionWithinBudget(m, ex.PrecF64, 1) {
		t.Fatal("f64 is not a reduced variant; the probe must refuse it")
	}
	for _, s := range []float64{1e300, 1e-310} {
		if PrecisionWithinBudget(scaled(m, s), ex.PrecF32, 1) {
			t.Fatalf("values scaled by %g do not fit float32; the probe must refuse them", s)
		}
	}
}

// scaled returns a copy of m with every value multiplied by s.
func scaled(m *matrix.CSR, s float64) *matrix.CSR {
	c := m.Clone()
	for j := range c.Val {
		c.Val[j] *= s
	}
	return c
}

// TestPrecisionKeepsF64WhenUnfit: on a matrix holding values float32
// cannot keep within the bound, neither ApplyPrecision nor the
// oracle's precision pass moves any format's plan off f64 — the engine
// would run the f64 binding anyway.
func TestPrecisionKeepsF64WhenUnfit(t *testing.T) {
	e := sim.New(machine.Broadwell())
	banded := gen.Banded(100000, 16, 1.0, 2)
	// A 3D Laplacian past Broadwell's LLC: symmetric, and large enough
	// that the halved lower-triangle stream still binds on DRAM
	// bandwidth, so f32 storage pays on values that fit.
	sym := gen.Poisson3D(86, 86, 86)
	sym.Sym = matrix.SymSymmetric
	for _, c := range []struct {
		name string
		m    *matrix.CSR
		o    ex.Optim
	}{
		{"csr+vec", banded, ex.Optim{Vectorize: true}},
		{"sellcs", banded, ex.Optim{Format: ex.FormatSellCS, Vectorize: true}},
		{"sss", sym, ex.Optim{Format: ex.FormatSSS}},
	} {
		pass := func(m *matrix.CSR) ex.Optim {
			secs := e.Run(ex.Config{Matrix: m, Opt: c.o}).Seconds
			got, _, _ := bestPrecisionFrom(e, m, c.o, secs, formats.F32EntryBound)
			return got
		}
		if got := pass(c.m); got.EffectivePrecision() != ex.PrecF32 {
			t.Fatalf("%s: setup: the precision pass must pick f32 on values that fit, got %+v", c.name, got)
		}
		for _, s := range []float64{1e300, 1e-310} {
			m := scaled(c.m, s)
			if got := ApplyPrecision(m, c.o, formats.F32EntryBound); got != c.o {
				t.Fatalf("%s x%g: ApplyPrecision changed the plan to %+v", c.name, s, got)
			}
			if got := pass(m); got != c.o {
				t.Fatalf("%s x%g: oracle precision pass changed the plan to %+v", c.name, s, got)
			}
		}
	}
}

// TestOracleSelectsPrecisionWhenBandwidthBound is the positive
// direction of the acceptance pin: the large vectorizable banded matrix
// is bandwidth bound on the model (the sim suite pins its binding), so
// the budgeted oracle's plan must carry a reduced precision, run
// strictly faster than the exact oracle plan, and pay a priced
// precision pass.
func TestOracleSelectsPrecisionWhenBandwidthBound(t *testing.T) {
	e := sim.New(machine.KNC())
	m := gen.Banded(400000, 16, 1.0, 2)
	o := &Oracle{}
	o.AccuracyBudget = formats.F32EntryBound
	pl := o.Plan(e, m)
	if got := pl.Opt.EffectivePrecision(); got == ex.PrecF64 {
		t.Fatalf("budgeted oracle kept f64 on a bandwidth-bound matrix: %+v", pl.Opt)
	}
	exact := (&Oracle{}).Plan(e, m)
	rRed := Evaluate(e, m, pl)
	rF64 := Evaluate(e, m, exact)
	if rRed.Seconds >= rF64.Seconds {
		t.Fatalf("reduced plan %.3g s not below f64 oracle plan %.3g s", rRed.Seconds, rF64.Seconds)
	}
	if pl.PreprocessSeconds <= exact.PreprocessSeconds {
		t.Fatalf("precision pass must be priced: pre %.3g <= %.3g",
			pl.PreprocessSeconds, exact.PreprocessSeconds)
	}
}

// TestOracleKeepsF64WhenNotBandwidthBound is the negative direction: a
// matrix whose winning configuration is not bandwidth bound must never
// pick up a reduced precision, whatever the budget. The small banded
// matrix is cache resident and its winner unrolls into the compute
// regime — the model prices reduced precision as exactly time-neutral
// there (the sim suite pins that inertness), so the post-pass cannot
// keep it.
func TestOracleKeepsF64WhenNotBandwidthBound(t *testing.T) {
	e := sim.New(machine.KNC())
	m := gen.Banded(2000, 8, 1.0, 3)
	o := &Oracle{}
	o.AccuracyBudget = formats.F32EntryBound
	pl := o.Plan(e, m)
	if b := Evaluate(e, m, pl).Breakdown.Binding(); b == "bandwidth" {
		t.Fatalf("setup expected a non-bandwidth-bound winner, got %s (%+v)", b, pl.Opt)
	}
	if got := pl.Opt.EffectivePrecision(); got != ex.PrecF64 {
		t.Fatalf("budgeted oracle chose %s on a compute-bound matrix (%+v)", got, pl.Opt)
	}
}

// TestOracleWithoutBudgetNeverReduces: no budget, no precision — the
// default oracle stays bit-exact f64 even on the most MB-bound input.
func TestOracleWithoutBudgetNeverReduces(t *testing.T) {
	e := sim.New(machine.KNC())
	m := gen.Banded(400000, 16, 1.0, 2)
	pl := (&Oracle{}).Plan(e, m)
	if got := pl.Opt.EffectivePrecision(); got != ex.PrecF64 {
		t.Fatalf("unbudgeted oracle reduced precision: %s", got)
	}
}

// TestFeatureGuidedAppliesPrecisionOnMB: the classifier path folds an
// in-budget variant into MB-classed plans — trading delta compression
// for the reduced stream when they collide — and the probe is priced
// into t_pre. A stub tree pins the MB classification deterministically.
func TestFeatureGuidedAppliesPrecisionOnMB(t *testing.T) {
	e := sim.New(machine.KNL())
	m := gen.Banded(400000, 16, 1.0, 2)
	tree := trainMBTree()

	fg := NewFeatureGuided(tree, features.ONNZSubset(), features.DefaultParams)
	fg.AccuracyBudget = formats.F32EntryBound
	pl := fg.Plan(e, m)
	if !pl.Classes.Has(classify.MB) {
		t.Fatalf("stub tree must classify MB, got %v", pl.Classes)
	}
	if got := pl.Opt.EffectivePrecision(); got != ex.PrecF32 {
		t.Fatalf("budgeted MB plan precision %s, want f32 (%+v)", got, pl.Opt)
	}

	exact := NewFeatureGuided(tree, features.ONNZSubset(), features.DefaultParams).Plan(e, m)
	if got := exact.Opt.EffectivePrecision(); got != ex.PrecF64 {
		t.Fatalf("unbudgeted plan reduced precision: %s", got)
	}
	if exact.PreprocessSeconds >= pl.PreprocessSeconds {
		t.Fatalf("probe must be priced: pre %.3g >= %.3g",
			exact.PreprocessSeconds, pl.PreprocessSeconds)
	}
}

// trainMBTree builds a single-leaf tree over the O(NNZ) feature subset
// that always predicts {MB}.
func trainMBTree() *ml.Tree {
	labels := classify.NewSet(classify.MB).Labels()
	width := len(features.ONNZSubset())
	samples := []ml.Sample{
		{X: make([]float64, width), Y: labels},
		{X: make([]float64, width), Y: labels},
	}
	ds, err := ml.NewDataset(samples)
	if err != nil {
		panic(err)
	}
	return ml.Fit(ds, ml.TreeParams{})
}

// TestApplyPrecisionTradesDelta: MB plans select DeltaCSR, which has no
// reduced value stream; ApplyPrecision must drop Compress to honor the
// variant rather than silently keeping f64, while leaving unrelated
// knobs and configurations it cannot honor untouched.
func TestApplyPrecisionTradesDelta(t *testing.T) {
	m := gen.Banded(5000, 8, 1.0, 3)
	o := CompressVec.Apply(ex.Optim{})
	got := ApplyPrecision(m, o, formats.F32EntryBound)
	if got.Format == ex.FormatDelta {
		t.Fatalf("ApplyPrecision kept Compress alongside a reduced stream: %+v", got)
	}
	if got.EffectivePrecision() != ex.PrecF32 {
		t.Fatalf("ApplyPrecision did not fold f32: %+v", got)
	}
	if !got.Vectorize {
		t.Fatalf("ApplyPrecision dropped unrelated knobs: %+v", got)
	}
	// Split-format configurations cannot honor the stream: unchanged.
	so := SplitRows.Apply(ex.Optim{})
	if got := ApplyPrecision(m, so, formats.F32EntryBound); got != so {
		t.Fatalf("ApplyPrecision changed a split-format config: %+v", got)
	}
	// And a budget below every bound changes nothing.
	if got := ApplyPrecision(m, o, 1e-13); got != o {
		t.Fatalf("ApplyPrecision acted on an unusable budget: %+v", got)
	}
}

// TestApplyPrecisionRespectsBudgetLadder: a budget below the f32
// bound admits nothing, and from the bound up f32 is folded in.
func TestApplyPrecisionRespectsBudgetLadder(t *testing.T) {
	m := gen.UniformRandom(800, 6, 9)
	for budget, want := range map[float64]ex.Precision{
		1e-12:                 ex.PrecF64,
		1e-9:                  ex.PrecF64,
		formats.F32EntryBound: ex.PrecF32,
		1e-3:                  ex.PrecF32,
	} {
		if got := ApplyPrecision(m, ex.Optim{}, budget).EffectivePrecision(); got != want {
			t.Fatalf("budget %g: precision %s, want %s", budget, got, want)
		}
	}
}

// TestConversionSecondsPricesPrecision: the narrowing pass costs one
// extra sweep over the same format's f64 conversion, and nothing where
// the knob is inert.
func TestConversionSecondsPricesPrecision(t *testing.T) {
	m := gen.UniformRandom(20000, 8, 1)
	mdl := machine.KNL()
	base := ConversionSeconds(m, mdl, ex.Optim{})
	red := ConversionSeconds(m, mdl, ex.Optim{Precision: ex.PrecF32})
	if red <= base {
		t.Fatalf("precision conversion not priced: %.3g <= %.3g", red, base)
	}
	if got, want := red-base, sweepSeconds(m, mdl); got != want {
		t.Fatalf("precision conversion = %+.3g sweeps-worth, want exactly one (%.3g)", got, want)
	}
	inert := ConversionSeconds(m, mdl, ex.Optim{Format: ex.FormatDelta, Precision: ex.PrecF32})
	if inert != ConversionSeconds(m, mdl, ex.Optim{Format: ex.FormatDelta}) {
		t.Fatal("precision conversion priced on delta where the knob is inert")
	}
}
