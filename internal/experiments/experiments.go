// Package experiments regenerates every table and figure of the
// paper's evaluation (the experiment index of DESIGN.md): Fig 1
// (blind optimization speedups), Fig 3 (per-class bounds), Table IV
// (feature-guided classifier accuracy), Fig 7 (the performance
// landscape on KNC/KNL/Broadwell), Table V (overhead amortization),
// plus the ablation studies A1-A5. Each driver returns structured
// results with a text-table renderer; cmd/spmvbench and the root
// benchmarks call these drivers directly.
package experiments

import (
	"fmt"
	"slices"
	"sync"

	"github.com/sparsekit/spmvtuner/internal/bounds"
	"github.com/sparsekit/spmvtuner/internal/classify"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/features"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/ml"
	"github.com/sparsekit/spmvtuner/internal/opt"
	"github.com/sparsekit/spmvtuner/internal/plan"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/sim"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// Config sizes an experiment run. The zero value selects the full
// reproduction setup; tests shrink Scale and CorpusSize.
type Config struct {
	// Scale multiplies suite matrix sizes (default 1.0, the
	// reproduction size where out-of-cache regimes exist; tests use
	// much smaller values).
	Scale float64
	// CorpusSize is the training-corpus size (default 210, the
	// paper's count).
	CorpusSize int
	// Matrices, when non-empty, restricts suite experiments to the
	// named subset (in suite order).
	Matrices []string
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.CorpusSize <= 0 {
		c.CorpusSize = suite.CorpusSize
	}
	return c
}

// selected returns the recipes of all the config asks for, in suite
// order (every one when no -matrix subset is given). A requested name
// that is not one of all's recipes is an error naming it, prefixed
// with the experiment exp: a silently shortened list would report on
// fewer matrices than asked, or pass vacuously over none.
func (c Config) selected(exp string, all []suite.Recipe) ([]suite.Recipe, error) {
	if len(c.Matrices) == 0 {
		return all, nil
	}
	for _, n := range c.Matrices {
		if !slices.ContainsFunc(all, func(r suite.Recipe) bool { return r.Name == n }) {
			return nil, fmt.Errorf("%s: unknown matrix %q", exp, n)
		}
	}
	var out []suite.Recipe
	for _, r := range all {
		if slices.Contains(c.Matrices, r.Name) {
			out = append(out, r)
		}
	}
	return out, nil
}

// reuseIters sizes a native timing loop so small matrices average away
// scheduler noise without making large ones slow.
func reuseIters(nnz int) int {
	it := 2_000_000 / (nnz + 1)
	if it < 5 {
		it = 5
	}
	if it > 200 {
		it = 200
	}
	return it
}

// featureParams derives the feature-extraction parameters from a
// platform (LLC capacity and line size feed the size/misses features).
func featureParams(mdl machine.Model) features.Params {
	return features.Params{LLCBytes: mdl.LLCBytes(), CacheLineBytes: mdl.CacheLineBytes}
}

// TrainedClassifier bundles a feature-guided classifier trained for
// one platform.
type TrainedClassifier struct {
	Tree  *ml.Tree
	Names []features.Name
	// CV is the cross-validation accuracy on the training corpus.
	CV ml.CVResult
}

// labelStreamedCorpus generates corpus matrices one at a time, labels
// each with the profile-guided classifier (Section III-D3) and
// extracts the requested features. Streaming keeps memory bounded at
// one matrix.
func labelStreamedCorpus(e *sim.Executor, n int, scale float64, names []features.Name) *ml.Dataset {
	fp := featureParams(e.Machine())
	pg := classify.NewProfileGuided()
	samples := make([]ml.Sample, 0, n)
	for i := 0; i < n; i++ {
		m := suite.TrainingMatrix(i, scale)
		b := bounds.Measure(e, m)
		set := pg.Classify(b)
		fs := features.Extract(m, fp)
		samples = append(samples, ml.Sample{X: fs.Vector(names), Y: set.Labels()})
		e.Forget(m)
	}
	ds, err := ml.NewDataset(samples)
	if err != nil {
		panic(fmt.Sprintf("experiments: corpus labeling: %v", err))
	}
	return ds
}

// datasetKey memoizes labeled corpora: labeling is the expensive part
// of training and several experiments train for the same platform.
type datasetKey struct {
	codename string
	n        int
	scale    float64
}

var (
	dsMu    sync.Mutex
	dsCache = map[datasetKey]*ml.Dataset{}
)

// corpusDataset returns the labeled corpus over the full Table I
// feature vector, memoized per (platform, size, scale).
func corpusDataset(mdl machine.Model, n int, scale float64) *ml.Dataset {
	key := datasetKey{mdl.Codename, n, scale}
	dsMu.Lock()
	if ds, ok := dsCache[key]; ok {
		dsMu.Unlock()
		return ds
	}
	dsMu.Unlock()
	e := sim.New(mdl)
	ds := labelStreamedCorpus(e, n, scale, features.AllNames())
	dsMu.Lock()
	dsCache[key] = ds
	dsMu.Unlock()
	return ds
}

// projectTo projects the all-features dataset onto a feature subset.
func projectTo(ds *ml.Dataset, names []features.Name) *ml.Dataset {
	all := features.AllNames()
	var keep []int
	for _, n := range names {
		for i, a := range all {
			if a == n {
				keep = append(keep, i)
			}
		}
	}
	return ds.Project(keep)
}

// treeParams are the CART settings used throughout the reproduction.
var treeParams = ml.TreeParams{MaxDepth: 10, MinSamplesSplit: 4}

// Train builds the feature-guided classifier for a platform using the
// O(NNZ) feature subset of Table IV (the most accurate one) and
// reports its LOO cross-validation accuracy.
func Train(mdl machine.Model, cfg Config) TrainedClassifier {
	c := cfg.withDefaults()
	names := features.ONNZSubset()
	ds := projectTo(corpusDataset(mdl, c.CorpusSize, c.Scale), names)
	tree := ml.Fit(ds, treeParams)
	cv := ml.LeaveOneOut(ds, treeParams)
	return TrainedClassifier{Tree: tree, Names: names, CV: cv}
}

// optimizersFor assembles the Fig 7 optimizer lineup for a platform.
// The feature-guided optimizer requires a trained classifier.
func optimizersFor(mdl machine.Model, tc TrainedClassifier) (prof *opt.ProfileGuided, feat *opt.FeatureGuided, oracle *opt.Oracle) {
	fp := featureParams(mdl)
	prof = opt.NewProfileGuided(fp)
	feat = opt.NewFeatureGuided(tc.Tree, tc.Names, fp)
	oracle = &opt.Oracle{}
	return prof, feat, oracle
}

// meanOfRatios averages per-matrix speedups the way the paper quotes
// them ("an impressive average 2.72x speedup over MKL CSR").
func meanOfRatios(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	var s float64
	for _, r := range ratios {
		s += r
	}
	return s / float64(len(ratios))
}

// gflops runs a plan and returns its rate.
func gflops(e ex.Executor, m *matrix.CSR, p plan.Plan) float64 {
	return opt.Evaluate(e, m, p).Gflops
}

// classString renders a class set like the Fig 7 annotations.
func classString(s classify.Set) string { return s.String() }

var _ = report.F // keep the report dependency explicit for subfiles
