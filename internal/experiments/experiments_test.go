package experiments

import (
	"strings"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/classify"
	"github.com/sparsekit/spmvtuner/internal/machine"
)

// tiny keeps experiment tests fast: small suite matrices, small corpus.
var tiny = Config{Scale: 0.02, CorpusSize: 30}

func TestFig1ShowsBothGainsAndLosses(t *testing.T) {
	res, err := Fig1(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 32 {
		t.Fatalf("fig1 rows = %d, want 32", len(res.Rows))
	}
	var helped, hurt bool
	for _, r := range res.Rows {
		for _, v := range []float64{r.Prefetch, r.Vector, r.AutoSch} {
			if v <= 0 {
				t.Fatalf("%s: nonpositive speedup %g", r.Matrix, v)
			}
			if v > 1.05 {
				helped = true
			}
			if v < 0.97 {
				hurt = true
			}
		}
	}
	if !helped || !hurt {
		t.Fatalf("Fig 1's point missing: helped=%v hurt=%v", helped, hurt)
	}
	if !strings.Contains(res.Table().String(), "prefetch") {
		t.Fatal("table missing header")
	}
}

func TestFig3BoundsAndDiversity(t *testing.T) {
	res, err := Fig3(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 32 {
		t.Fatalf("fig3 rows = %d", len(res.Rows))
	}
	classSets := map[string]bool{}
	for _, r := range res.Rows {
		b := r.Bounds
		if b.PCSR <= 0 {
			t.Fatalf("%s: PCSR %g", r.Matrix, b.PCSR)
		}
		if b.Ppeak < b.PMB {
			t.Fatalf("%s: Ppeak < PMB", r.Matrix)
		}
		classSets[r.Classes.String()] = true
	}
	// At tiny scale everything is cache resident, so only compute and
	// imbalance classes can exist; full diversity is asserted at
	// reproduction scale below on a suite subset.
	if len(classSets) < 2 {
		t.Fatalf("only %d distinct class sets", len(classSets))
	}
	_ = res.Table().String()
}

// TestFig3DiversityAtScale reproduces the paper's central observation
// at reproduction scale on a representative subset: distinct matrices
// hit distinct bottleneck classes, including the out-of-cache ML
// regime that cannot exist on cache-resident miniatures.
func TestFig3DiversityAtScale(t *testing.T) {
	res, err := Fig3(Config{
		Scale:      1.0,
		CorpusSize: 1,
		Matrices:   []string{"poisson3Db", "consph", "ASIC_680k", "webbase-1M", "citationCiteseer", "large-dense"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	classSets := map[string]bool{}
	var sawML, sawIMB bool
	for _, r := range res.Rows {
		classSets[r.Classes.String()] = true
		if r.Classes.Has(classify.ML) {
			sawML = true
		}
		if r.Classes.Has(classify.IMB) {
			sawIMB = true
		}
	}
	if len(classSets) < 3 {
		t.Fatalf("only %d distinct class sets at scale 1.0: no diversity", len(classSets))
	}
	if !sawML {
		t.Error("no matrix classified ML at reproduction scale")
	}
	if !sawIMB {
		t.Error("no matrix classified IMB at reproduction scale")
	}
}

func TestTable4AccuraciesSane(t *testing.T) {
	res := Table4(tiny)
	if len(res.Rows) != 3 {
		t.Fatalf("table4 rows = %d, want 3", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.CV.ExactMatchRatio < 0.3 {
			t.Errorf("%s: exact match %.2f unreasonably low", r.Label, r.CV.ExactMatchRatio)
		}
		if r.CV.PartialMatchRatio < r.CV.ExactMatchRatio {
			t.Errorf("%s: partial < exact", r.Label)
		}
		if r.CV.ExactMatchRatio > 1 || r.CV.PartialMatchRatio > 1 {
			t.Errorf("%s: ratios above 1", r.Label)
		}
	}
	_ = res.Table().String()
}

func TestFig7KNCLandscape(t *testing.T) {
	res, err := Fig7("knc", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 32 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.MKL <= 0 || r.Baseline <= 0 || r.Prof <= 0 || r.Feat <= 0 || r.Oracle <= 0 {
			t.Fatalf("%s: nonpositive rate", r.Matrix)
		}
		if r.IE != 0 {
			t.Fatalf("%s: Inspector-Executor must be absent on KNC", r.Matrix)
		}
		// Oracle dominates both adaptive optimizers.
		if r.Prof > r.Oracle*1.0001 || r.Feat > r.Oracle*1.0001 {
			t.Fatalf("%s: optimizer beat the oracle (prof %.2f feat %.2f oracle %.2f)",
				r.Matrix, r.Prof, r.Feat, r.Oracle)
		}
	}
	// The headline claim: adaptive optimizers beat MKL on average.
	if res.AvgProfVsMKL < 1.1 || res.AvgFeatVsMKL < 1.0 {
		t.Fatalf("averages too low: prof %.2f feat %.2f", res.AvgProfVsMKL, res.AvgFeatVsMKL)
	}
	_ = res.Table().String()
}

func TestFig7UnknownPlatform(t *testing.T) {
	if _, err := Fig7("gpu", tiny); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

func TestTable5Ordering(t *testing.T) {
	res, err := Table5(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 optimizers", len(res.Rows))
	}
	byName := map[string]Table5Row{}
	for _, r := range res.Rows {
		byName[r.Optimizer] = r
	}
	feat, prof := byName["feature-guided"], byName["profile-guided"]
	single, combined := byName["trivial-single"], byName["trivial-combined"]
	// The paper's qualitative ordering on averages: feat < prof <
	// trivial-single < trivial-combined.
	if !(feat.Avg < prof.Avg && prof.Avg < single.Avg && single.Avg < combined.Avg) {
		t.Fatalf("amortization ordering broken: feat %.0f prof %.0f single %.0f combined %.0f",
			feat.Avg, prof.Avg, single.Avg, combined.Avg)
	}
	_ = res.Table().String()
}

func TestPlatformsTable(t *testing.T) {
	s := Platforms().String()
	for _, want := range []string{"knc", "knl", "bdw", "395/570"} {
		if !strings.Contains(s, want) {
			t.Fatalf("platform table missing %q:\n%s", want, s)
		}
	}
}

func TestFeatureTable(t *testing.T) {
	s := FeatureTable(tiny).String()
	if !strings.Contains(s, "webbase-1M") {
		t.Fatal("feature table missing suite matrix")
	}
}

func TestAblateDelta(t *testing.T) {
	res := AblateDelta(tiny)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range res.Rows {
		if r.BPE8 <= 0 || r.BPE16 <= 0 {
			t.Fatalf("%s: degenerate bytes/elem", r.Matrix)
		}
		// The automatic choice must pick the smaller footprint.
		wantAuto := r.BPE8 <= r.BPE16
		gotAuto := r.AutoWidth == 8
		if wantAuto != gotAuto {
			t.Errorf("%s: auto width %d but footprints are %.2f vs %.2f",
				r.Matrix, r.AutoWidth, r.BPE8, r.BPE16)
		}
	}
	_ = res.Table().String()
}

func TestAblateSplit(t *testing.T) {
	res := AblateSplit(tiny)
	if len(res.Rows) == 0 || res.DefaultThreshold <= 0 {
		t.Fatal("degenerate result")
	}
	// Lower thresholds split at least as many rows.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Matrix == res.Rows[i-1].Matrix &&
			res.Rows[i].Threshold > res.Rows[i-1].Threshold &&
			res.Rows[i].LongRows > res.Rows[i-1].LongRows {
			t.Fatalf("higher threshold split more rows: %+v vs %+v", res.Rows[i-1], res.Rows[i])
		}
	}
	_ = res.Table().String()
}

func TestAblateSched(t *testing.T) {
	res := AblateSched(tiny)
	for _, r := range res.Rows {
		if len(r.Gflops) != 5 || r.BestPol == "" {
			t.Fatalf("%s: incomplete policies %v", r.Matrix, r.Gflops)
		}
	}
	_ = res.Table().String()
}

func TestAblatePrefetchMonotone(t *testing.T) {
	res := AblatePrefetch(tiny)
	// Speedup is non-decreasing in MLP per matrix.
	last := map[string]float64{}
	for _, r := range res.Rows {
		if prev, ok := last[r.Matrix]; ok && r.Speedup < prev*0.999 {
			t.Fatalf("%s: speedup fell from %.3f to %.3f with more MLP", r.Matrix, prev, r.Speedup)
		}
		last[r.Matrix] = r.Speedup
	}
	_ = res.Table().String()
}

func TestPartitionedMLFindsHiddenIrregularity(t *testing.T) {
	res := PartitionedML(tiny)
	for _, r := range res.Rows {
		// Partition probing can only increase the observed ratio.
		if r.PartRatio < r.WholeRatio*0.9 {
			t.Fatalf("%s: partition ratio %.2f below whole %.2f", r.Matrix, r.PartRatio, r.WholeRatio)
		}
	}
	_ = res.Table().String()
}

func TestSellCSExperiment(t *testing.T) {
	res, err := SellCS(Config{Scale: 0.02, Matrices: []string{"webbase-1M", "poisson3Db"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.CSRUs <= 0 || r.SellUs <= 0 {
			t.Fatalf("%s: nonpositive timing %+v", r.Matrix, r)
		}
		if r.Padding < 1 {
			t.Fatalf("%s: padding ratio %g < 1", r.Matrix, r.Padding)
		}
	}
	s := res.Table().String()
	if !strings.Contains(s, "sellcs-c8") {
		t.Fatalf("table missing kernel column:\n%s", s)
	}
}

func TestSymExperiment(t *testing.T) {
	res, err := Sym(Config{Scale: 0.02, Matrices: []string{"lap2d", "sym-fem"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.CSRUs <= 0 || r.SSSUs <= 0 {
			t.Fatalf("%s: nonpositive timing %+v", r.Matrix, r)
		}
		if r.BytesX <= 1 {
			t.Fatalf("%s: SSS did not shrink matrix bytes (bytes-x %.2f)", r.Matrix, r.BytesX)
		}
		if r.MaxDiff > 1e-12 {
			t.Fatalf("%s: SSS diverged from the reference by %g", r.Matrix, r.MaxDiff)
		}
	}
	s := res.Table().String()
	if !strings.Contains(s, "bytes-x") {
		t.Fatalf("table missing bytes column:\n%s", s)
	}
}

func TestTrainProducesUsableClassifier(t *testing.T) {
	tc := Train(machineKNC(), tiny)
	if tc.Tree == nil || len(tc.Names) == 0 {
		t.Fatal("training failed")
	}
	if tc.CV.ExactMatchRatio <= 0 {
		t.Fatal("zero CV accuracy")
	}
}

// machineKNC avoids importing machine in every test body.
func machineKNC() machine.Model { return machine.KNC() }

// TestWarmExperiment: the plan-store experiment is self-asserting
// (zero warm measurements, identical plans); a nil error IS the
// assertion. The table must carry one row per requested matrix plus
// the pinned reduced-precision row warmReducedPrecision appends.
func TestWarmExperiment(t *testing.T) {
	res, err := Warm(Config{Scale: 0.02, Matrices: []string{"poisson3Db", "ASIC_680k"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 2 requested + 1 pinned f32", len(res.Rows))
	}
	if last := res.Rows[len(res.Rows)-1]; last.Matrix != "banded-f32 (pinned MB)" || !strings.Contains(last.Plan, "f32") {
		t.Fatalf("pinned reduced-precision row: %+v", last)
	}
	for _, row := range res.Rows {
		if row.WarmRuns != 0 || row.FreshRuns != 0 {
			t.Fatalf("warm path measured: %+v", row)
		}
		if row.ColdRuns == 0 {
			t.Fatalf("cold path measured nothing: %+v", row)
		}
		if !row.PlanEqual {
			t.Fatalf("plans diverged: %+v", row)
		}
	}
	if res.Table().String() == "" {
		t.Fatal("empty table")
	}
	// Unknown -matrix names must fail loudly, not pass vacuously with
	// zero rows (this experiment doubles as the CI smoke).
	if _, err := Warm(Config{Scale: 0.02, Matrices: []string{"poisson3Db", "not-a-matrix"}}); err == nil {
		t.Fatal("unknown matrix name accepted")
	}
}

// TestUnknownMatrixIsAnError pins the -matrix contract on a modeled
// experiment (fig1) and a native one (sellcs): a name outside the
// experiment's suite is an error naming it, before any matrix runs,
// instead of a silently shorter table.
func TestUnknownMatrixIsAnError(t *testing.T) {
	cfg := Config{Scale: 0.02, Matrices: []string{"poisson3Db", "not-a-matrix"}}
	_, err := Fig1(cfg)
	if err == nil || !strings.Contains(err.Error(), `fig1: unknown matrix "not-a-matrix"`) {
		t.Fatalf("fig1: err = %v", err)
	}
	_, err = SellCS(cfg)
	if err == nil || !strings.Contains(err.Error(), `sellcs: unknown matrix "not-a-matrix"`) {
		t.Fatalf("sellcs: err = %v", err)
	}
	// Names from another suite list are unknown to this experiment too.
	if _, err := Sym(Config{Scale: 0.02, Matrices: []string{"poisson3Db"}}); err == nil {
		t.Fatal("sym accepted a non-symmetric suite matrix")
	}
	res, err := SellCS(Config{Scale: 0.02, Matrices: []string{"small-dense"}})
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("sellcs over one known matrix: %d rows, err %v", len(res.Rows), err)
	}
}
