package opt

import (
	"testing"

	"github.com/sparsekit/spmvtuner/internal/classify"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/features"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/ml"
	"github.com/sparsekit/spmvtuner/internal/sched"
	"github.com/sparsekit/spmvtuner/internal/sim"
)

func TestMemberApply(t *testing.T) {
	cases := map[Member]func(ex.Optim) bool{
		CompressVec: func(o ex.Optim) bool { return o.Format == ex.FormatDelta && o.Vectorize },
		Prefetch:    func(o ex.Optim) bool { return o.Prefetch },
		SplitRows:   func(o ex.Optim) bool { return o.Format == ex.FormatSplit },
		AutoSched:   func(o ex.Optim) bool { return o.Schedule == sched.Auto },
		UnrollVec:   func(o ex.Optim) bool { return o.Unroll && o.Vectorize },
	}
	for m, check := range cases {
		if !check(m.Apply(ex.Optim{})) {
			t.Errorf("%v did not set its knobs", m)
		}
	}
	if len(AllMembers()) != int(NumMembers) || NumMembers != 5 {
		t.Fatal("the pool must have exactly 5 single optimizations (Table V)")
	}
}

func TestMembersForTableII(t *testing.T) {
	flat := features.Set{NNZAvg: 8, NNZMax: 10, BWSd: 1}
	skewed := features.Set{NNZAvg: 8, NNZMax: 5000, BWSd: 1}

	if ms := MembersFor(classify.NewSet(classify.MB), flat); len(ms) != 1 || ms[0] != CompressVec {
		t.Errorf("MB -> %v, want compression+vectorization", ms)
	}
	if ms := MembersFor(classify.NewSet(classify.ML), flat); len(ms) != 1 || ms[0] != Prefetch {
		t.Errorf("ML -> %v, want prefetch", ms)
	}
	if ms := MembersFor(classify.NewSet(classify.CMP), flat); len(ms) != 1 || ms[0] != UnrollVec {
		t.Errorf("CMP -> %v, want unroll+vectorization", ms)
	}
	// IMB subcategory: decomposition for dominating rows, auto
	// scheduling otherwise.
	if ms := MembersFor(classify.NewSet(classify.IMB), skewed); len(ms) != 1 || ms[0] != SplitRows {
		t.Errorf("IMB skewed -> %v, want decomposition", ms)
	}
	if ms := MembersFor(classify.NewSet(classify.IMB), flat); len(ms) != 1 || ms[0] != AutoSched {
		t.Errorf("IMB flat -> %v, want auto scheduling", ms)
	}
	if ms := MembersFor(classify.NewSet(), flat); len(ms) != 0 {
		t.Errorf("empty class set -> %v, want nothing", ms)
	}
}

func TestSellCMemberExtendsThePool(t *testing.T) {
	// SellC stays outside the paper's Table V pool…
	for _, m := range AllMembers() {
		if m == SellC {
			t.Fatal("SellC must not join the paper's 5-member pool")
		}
	}
	// …but applies the SELL-C-σ knobs (the format is inherently
	// vectorized).
	o := SellC.Apply(ex.Optim{})
	if o.Format != ex.FormatSellCS || !o.Vectorize {
		t.Fatalf("SellC knobs incomplete: %v", o)
	}
	if SellC.String() != "sell-c-sigma" {
		t.Fatalf("SellC name = %q", SellC.String())
	}
}

func TestMembersForSelectsSellC(t *testing.T) {
	// Imbalanced AND latency bound without dominating rows: SELL-C-σ.
	flat := features.Set{NNZAvg: 8, NNZMax: 10, BWSd: 1}
	ms := MembersFor(classify.NewSet(classify.ML, classify.IMB), flat)
	var hasSell, hasPrefetch bool
	for _, m := range ms {
		hasSell = hasSell || m == SellC
		hasPrefetch = hasPrefetch || m == Prefetch
	}
	if !hasSell || !hasPrefetch {
		t.Fatalf("ML+IMB flat -> %v, want prefetch and sell-c-sigma", ms)
	}
	// Dominating rows still take the Fig 5 decomposition.
	skewed := features.Set{NNZAvg: 8, NNZMax: 5000, BWSd: 1}
	for _, m := range MembersFor(classify.NewSet(classify.ML, classify.IMB), skewed) {
		if m == SellC {
			t.Fatal("dominating rows must pick decomposition, not SELL")
		}
	}
}

func TestSellCandidatesCoverClassifierOutputs(t *testing.T) {
	// Every joint configuration the classifier can produce with SellC
	// in it must appear in the oracle's extended candidate list.
	cands := map[ex.Optim]bool{}
	for _, o := range sellCandidates() {
		cands[o] = true
	}
	// SELL-C-σ alone and with each subset of {prefetch, unrolling}.
	if len(cands) != 4 {
		t.Fatalf("extended candidates = %d, want 4", len(cands))
	}
	flat := features.Set{NNZAvg: 8, NNZMax: 10}
	for set := classify.Set(0); set < 16; set++ {
		o := OptimFor(set, flat)
		if o.Format == ex.FormatSellCS && !cands[o] {
			t.Fatalf("classifier output %v missing from oracle candidates", o)
		}
	}
}

func TestSellConversionCost(t *testing.T) {
	m := gen.Banded(5000, 4, 1.0, 1)
	mdl := machine.KNC()
	cs := ConversionSeconds(m, mdl, ex.Optim{Format: ex.FormatSellCS})
	cd := ConversionSeconds(m, mdl, ex.Optim{Format: ex.FormatDelta})
	if cs <= cd {
		t.Fatalf("SELL conversion (%g) must cost more than delta (%g): it rewrites and sorts", cs, cd)
	}
}

func TestOptimForJointApplication(t *testing.T) {
	fs := features.Set{NNZAvg: 8, NNZMax: 5000}
	o := OptimFor(classify.NewSet(classify.ML, classify.IMB, classify.MB), fs)
	if !o.Prefetch || o.Format != ex.FormatSplit || !o.Vectorize {
		t.Fatalf("joint application incomplete: %v", o)
	}
}

// TestApplyKeepsStrongerFormat: joining two format members in either
// order runs the stronger format, so a joint application never carries
// two formats.
func TestApplyKeepsStrongerFormat(t *testing.T) {
	members := []Member{CompressVec, SellC, SplitRows, SymSSS}
	for _, a := range members {
		for _, b := range members {
			fa, fb := a.Apply(ex.Optim{}).Format, b.Apply(ex.Optim{}).Format
			if got := b.Apply(a.Apply(ex.Optim{})).Format; got != max(fa, fb) {
				t.Errorf("%v then %v runs %v, want %v", a, b, got, max(fa, fb))
			}
		}
	}
}

func TestCandidateCounts(t *testing.T) {
	if got := len(candidateOptims(false, false)); got != 5 {
		t.Fatalf("singles = %d, want 5", got)
	}
	if got := len(candidateOptims(true, false)); got != 15 {
		t.Fatalf("singles+pairs = %d, want 15 (Table V)", got)
	}
	if got := len(candidateOptims(true, true)); got != 25 {
		t.Fatalf("singles+pairs+triples = %d, want 25 (oracle pool)", got)
	}
}

func TestConversionSeconds(t *testing.T) {
	m := gen.Banded(5000, 4, 1.0, 1)
	mdl := machine.KNC()
	if s := ConversionSeconds(m, mdl, ex.Optim{}); s != 0 {
		t.Fatalf("no-conversion cost = %g, want 0", s)
	}
	cd := ConversionSeconds(m, mdl, ex.Optim{Format: ex.FormatDelta})
	cs := ConversionSeconds(m, mdl, ex.Optim{Format: ex.FormatSplit})
	if cd <= 0 || cs <= 0 {
		t.Fatalf("conversion costs wrong: %g %g", cd, cs)
	}
}

func TestFeatureExtractionSecondsComplexity(t *testing.T) {
	m := gen.Banded(50000, 4, 1.0, 2)
	mdl := machine.KNC()
	o1 := FeatureExtractionSeconds(m, mdl, []features.Name{features.FSize})
	oN := FeatureExtractionSeconds(m, mdl, features.ONSubset())
	oNNZ := FeatureExtractionSeconds(m, mdl, features.ONNZSubset())
	if o1 != 0 {
		t.Fatalf("O(1) features cost %g, want 0", o1)
	}
	if !(oN > 0 && oNNZ > oN) {
		t.Fatalf("cost ordering broken: O(N)=%g O(NNZ)=%g", oN, oNNZ)
	}
}

func TestBaselinePlan(t *testing.T) {
	e := sim.New(machine.KNC())
	p := Baseline{}.Plan(e, gen.Banded(1000, 3, 1, 1))
	if p.PreprocessSeconds != 0 || p.Opt != (ex.Optim{}) {
		t.Fatalf("baseline plan %+v", p)
	}
}

func TestProfileGuidedPlanSelectsSensibly(t *testing.T) {
	e := sim.New(machine.KNC())
	pg := NewProfileGuided(features.DefaultParams)

	irr := gen.UniformRandom(400000, 9, 1)
	p := pg.Plan(e, irr)
	if !p.HasClasses || !p.Classes.Has(classify.ML) {
		t.Errorf("irregular matrix plan classes %v, want ML", p.Classes)
	}
	if !p.Opt.Prefetch {
		t.Errorf("ML class must enable prefetch, got %v", p.Opt)
	}
	if p.PreprocessSeconds <= 0 {
		t.Error("profile-guided preprocessing must cost something")
	}

	skew := gen.FewDenseRows(100000, 5, 3, 60000, 1)
	ps := pg.Plan(e, skew)
	if !ps.Classes.Has(classify.IMB) {
		t.Errorf("skewed matrix classes %v, want IMB", ps.Classes)
	}
	if ps.Opt.Format != ex.FormatSplit {
		t.Errorf("dominating rows must select decomposition, got %v", ps.Opt)
	}
}

func TestProfileGuidedImprovesOverBaseline(t *testing.T) {
	e := sim.New(machine.KNC())
	pg := NewProfileGuided(features.DefaultParams)
	irr := gen.UniformRandom(400000, 9, 2)
	base := e.Run(ex.Config{Matrix: irr}).Seconds
	p := pg.Plan(e, irr)
	opt := Evaluate(e, irr, p).Seconds
	if opt >= base {
		t.Fatalf("profile-guided did not improve irregular matrix: %.3g -> %.3g", base, opt)
	}
}

func TestOracleAtLeastAsGoodAsEveryCandidate(t *testing.T) {
	e := sim.New(machine.KNC())
	m := gen.FewDenseRows(100000, 5, 3, 60000, 3)
	oracle := (&Oracle{}).Plan(e, m)
	oracleSecs := Evaluate(e, m, oracle).Seconds
	for _, o := range candidateOptims(true, true) {
		if s := e.Run(ex.Config{Matrix: m, Opt: o}).Seconds; s < oracleSecs*(1-1e-9) {
			t.Fatalf("oracle %.4g beaten by %v at %.4g", oracleSecs, o, s)
		}
	}
	base := e.Run(ex.Config{Matrix: m}).Seconds
	if oracleSecs > base {
		t.Fatal("oracle must never lose to the baseline")
	}
}

func TestTrivialOptimizersCostOrdering(t *testing.T) {
	e := sim.New(machine.KNC())
	m := gen.UniformRandom(100000, 8, 4)
	single := TrivialSingle{}.Plan(e, m)
	combined := TrivialCombined{}.Plan(e, m)
	if single.PreprocessSeconds <= 0 {
		t.Fatal("trivial-single must pay preprocessing")
	}
	if combined.PreprocessSeconds <= 2*single.PreprocessSeconds {
		t.Fatalf("trivial-combined (%g) should cost well above trivial-single (%g)",
			combined.PreprocessSeconds, single.PreprocessSeconds)
	}
}

func TestPreprocessOrderingMatchesTableV(t *testing.T) {
	// Table V's qualitative ordering: feature-guided < profile-guided
	// < trivial-single < trivial-combined.
	e := sim.New(machine.KNL())
	m := gen.UniformRandom(200000, 10, 5)

	// A stub tree suffices for cost accounting: predict "ML".
	tree := trainStubTree()
	feat := NewFeatureGuided(tree, features.ONNZSubset(), features.DefaultParams).Plan(e, m)
	prof := NewProfileGuided(features.DefaultParams).Plan(e, m)
	single := TrivialSingle{}.Plan(e, m)
	combined := TrivialCombined{}.Plan(e, m)

	if !(feat.PreprocessSeconds < prof.PreprocessSeconds &&
		prof.PreprocessSeconds < single.PreprocessSeconds &&
		single.PreprocessSeconds < combined.PreprocessSeconds) {
		t.Fatalf("preprocessing ordering broken: feat=%.4g prof=%.4g single=%.4g combined=%.4g",
			feat.PreprocessSeconds, prof.PreprocessSeconds,
			single.PreprocessSeconds, combined.PreprocessSeconds)
	}
}

// trainStubTree builds a single-leaf tree over the O(NNZ) feature
// subset that always predicts {ML}.
func trainStubTree() *ml.Tree {
	labels := classify.NewSet(classify.ML).Labels()
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

// countingExec counts Run calls per canonical configuration.
type countingExec struct {
	ex.Executor
	runs map[ex.Optim]int
}

func (c *countingExec) Run(cfg ex.Config) ex.Result {
	c.runs[cfg.Opt.Canonical(c.Machine())]++
	return c.Executor.Run(cfg)
}

func (c *countingExec) total() int {
	n := 0
	for _, r := range c.runs {
		n += r
	}
	return n
}

// TestSweepRunsEachCanonicalCandidateOnce checks that the host oracle
// times each canonical form once — knob sets binding the same kernel
// are one candidate — while on KNC every knob set is its own kernel,
// so the trivial optimizers still run Table V's 5 and 15 candidates
// (plus the baseline), and the oracle every distinct knob set once.
func TestSweepRunsEachCanonicalCandidateOnce(t *testing.T) {
	host := machine.Host()
	m := gen.Poisson2D(200, 200)
	m.Sym = matrix.SymSymmetric
	c := &countingExec{Executor: sim.New(host), runs: map[ex.Optim]int{}}
	(&Oracle{}).Plan(c, m)
	want := map[ex.Optim]bool{{}: true}
	cands := append(append(candidateOptims(true, true), sellCandidates()...), symCandidates()...)
	for _, o := range cands {
		want[o.Canonical(host)] = true
	}
	for o, n := range c.runs {
		if n != 1 || !want[o] {
			t.Errorf("host oracle ran %v %d times (a candidate: %v)", o, n, want[o])
		}
	}
	if len(c.runs) != len(want) || len(want) >= len(cands) {
		t.Fatalf("host oracle ran %d distinct forms of %d canonical candidates (%d knob sets)",
			len(c.runs), len(want), len(cands))
	}

	knc := sim.New(machine.KNC())
	for _, tc := range []struct {
		opt  Optimizer
		want int
	}{
		{TrivialSingle{}, 1 + 5},
		{TrivialCombined{}, 1 + 15},
		// 10 triples less compress+split+unroll, which runs Split like
		// the split+unroll pair; 4 SELL-C-σ candidates and one SSS.
		{&Oracle{}, 1 + 15 + 9 + 4 + 1},
	} {
		c := &countingExec{Executor: knc, runs: map[ex.Optim]int{}}
		tc.opt.Plan(c, m)
		if c.total() != tc.want || len(c.runs) != tc.want {
			t.Errorf("%s on KNC: %d runs of %d forms, want %d", tc.opt.Name(), c.total(), len(c.runs), tc.want)
		}
	}
}
