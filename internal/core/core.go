// Package core wires the paper's primary contribution into one
// pipeline: bottleneck analysis (Section III-B bounds), classification
// (profile-guided rules of Fig 4 or a trained feature-guided decision
// tree), and optimization selection (Table II). The pipeline's output
// is the serializable Plan IR (internal/plan), bound to the matrix's
// structural fingerprint; with a plan store attached, Prepare
// warm-starts — a store hit skips the entire classify + sweep and goes
// straight to kernel compilation. The public facade and the
// command-line tools are thin wrappers over this package.
package core

import (
	"math"

	"github.com/sparsekit/spmvtuner/internal/bounds"
	"github.com/sparsekit/spmvtuner/internal/classify"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/features"
	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/ml"
	"github.com/sparsekit/spmvtuner/internal/opt"
	"github.com/sparsekit/spmvtuner/internal/plan"
	"github.com/sparsekit/spmvtuner/internal/planstore"
)

// Mode selects the classifier driving optimization selection.
type Mode int

const (
	// ProfileGuided runs the micro-benchmark bounds and the Fig 4
	// rules (more accurate, costs profiling runs).
	ProfileGuided Mode = iota
	// FeatureGuided applies a pre-trained decision tree to structural
	// features (cheapest, Section III-D).
	FeatureGuided
)

// Pipeline is a configured optimizer: an executor (modeled platform or
// native host) plus the classification machinery. A Pipeline is not
// safe for concurrent use; the facade serializes access.
type Pipeline struct {
	Exec ex.Executor
	Mode Mode
	// Tree and TreeFeatures are required in FeatureGuided mode.
	Tree         *ml.Tree
	TreeFeatures []features.Name
	// Thresholds for the profile-guided rules (zero value: paper's).
	Thresholds classify.Thresholds
	// Store, when non-nil, is the plan store Prepare consults before
	// tuning and writes every fresh decision back to: the amortization
	// layer that makes repeat traffic pay the classify + sweep cost
	// once, ever.
	Store *planstore.Store
	// Twin, when non-nil, is the calibrated analytic model of this
	// host (a sim executor over measured ceilings). Prepare uses it
	// two ways: a fresh plan is priced by the twin so the stored
	// artifact carries an analytic prediction, and a store-loaded plan
	// is re-priced before it is trusted — a plan whose recorded
	// PredictedGflops disagrees with the local twin by more than
	// DefaultTwinTolerance was decided on a different machine shape
	// and is re-tuned instead of blindly reused. All of this is
	// analytic: the gate costs zero hardware measurements.
	Twin ex.Executor
	// AccuracyBudget, when positive, opts the pipeline into reduced-
	// precision value storage (an f32 value stream, admitted from a
	// budget of 1e-6 up): the optimizer may fold it into MB-classed
	// plans of matrices whose values fit float32, after a measured
	// error probe against the f64 reference. Zero —
	// the default — keeps every result exact f64; nothing in the
	// pipeline trades accuracy without this explicit grant.
	AccuracyBudget float64
}

// DefaultTwinTolerance is the relative deviation the twin validation
// gate accepts: a stored prediction within 50% of the local twin's is
// trusted.
// Analytic models are good to tens of percent (the paper's Table IV
// framing), so a factor-of-two disagreement means a different
// machine, not model noise.
const DefaultTwinTolerance = 0.5

// New builds a profile-guided pipeline over the executor.
func New(e ex.Executor) *Pipeline {
	return &Pipeline{Exec: e, Thresholds: classify.DefaultThresholds()}
}

// Analysis is the full diagnosis of one matrix on the pipeline's
// platform.
type Analysis struct {
	// Bounds holds P_CSR and the per-class upper bounds.
	Bounds bounds.Bounds
	// Classes is the detected bottleneck set.
	Classes classify.Set
	// Features is the Table I feature set.
	Features features.Set
	// Plan is the selected configuration as the bound Plan IR, with
	// its preprocessing cost and provenance.
	Plan plan.Plan
	// Optimized is the modeled/measured result of the plan.
	Optimized ex.Result
}

// featureParams derives extraction parameters from the executor's
// platform.
func (p *Pipeline) featureParams() features.Params {
	mdl := p.Exec.Machine()
	return features.Params{LLCBytes: mdl.LLCBytes(), CacheLineBytes: mdl.CacheLineBytes}
}

// optimizer materializes the configured opt.Optimizer.
func (p *Pipeline) optimizer() opt.Optimizer {
	fp := p.featureParams()
	switch p.Mode {
	case FeatureGuided:
		if p.Tree == nil {
			// Fall back to profile-guided rather than failing: the
			// feature-guided mode is an optimization of the decision
			// cost, not a different contract.
			break
		}
		fg := opt.NewFeatureGuided(p.Tree, p.TreeFeatures, fp)
		fg.AccuracyBudget = p.AccuracyBudget
		return fg
	}
	pg := opt.NewProfileGuided(fp)
	pg.Th = p.Thresholds
	pg.AccuracyBudget = p.AccuracyBudget
	return pg
}

// bind stamps an optimizer's raw decision into a complete Plan IR
// artifact: schema version, the matrix's structural fingerprint
// (precomputed by the caller — it is O(NNZ), so each entry point
// hashes exactly once), the decision platform's codename, and the
// library identity. The knobs are stored in their canonical form on
// that platform (exec.Optim.Canonical), so a host plan names the
// kernel it runs. This is the only place plans acquire identity, so
// every plan that leaves the pipeline is store- and wire-ready.
func (p *Pipeline) bind(fp string, pl plan.Plan) plan.Plan {
	mdl := p.Exec.Machine()
	pl.Version = plan.CurrentVersion
	pl.Fingerprint = fp
	pl.Machine = mdl.Codename
	pl.Opt = pl.Opt.Canonical(mdl)
	pl.KernelISA = kernels.ISA()
	pl.Library = plan.Library
	return pl
}

// twinTrusts is the analytic plan-validation gate: re-price a
// store-loaded plan on the local twin and accept it only when its
// recorded prediction agrees within tolerance. Plans with no recorded
// prediction (tuned before the twin existed) and pipelines with no
// twin pass trivially — the gate narrows trust, it never blocks the
// legacy path.
func (p *Pipeline) twinTrusts(m *matrix.CSR, pl plan.Plan) bool {
	if p.Twin == nil || pl.PredictedGflops <= 0 {
		return true
	}
	local := opt.Evaluate(p.Twin, m, pl).Gflops
	if local <= 0 {
		return true
	}
	return math.Abs(pl.PredictedGflops-local)/local <= DefaultTwinTolerance
}

// storeKey is the (fingerprint, machine, version) identity Prepare
// caches plans under.
func (p *Pipeline) storeKey(fp string) planstore.Key {
	return planstore.Key{
		Fingerprint: fp,
		Machine:     p.Exec.Machine().Codename,
		Version:     plan.CurrentVersion,
	}
}

// legacyFingerprint is matrix.LegacyFingerprint, held in a variable so
// tests can count the legacy hashes a lookup computes.
var legacyFingerprint = matrix.LegacyFingerprint

// stored is the plan-store lookup Prepare and PriceOn share: the plan
// filed under m's fingerprint fp, or else one filed under m's
// version-1 fingerprint, which it migrates. The version-1 hash runs
// only when the store holds an entry file of m's version-1 shape for
// this machine and plan version, so a miss on a store without one
// costs no second hash. A migrated plan must validate against the
// version-1 value; it is then refiled under fp and its old file
// deleted. A stale one is deleted and reported as a miss.
func (p *Pipeline) stored(m *matrix.CSR, fp string) (plan.Plan, bool) {
	key := p.storeKey(fp)
	if pl, ok := p.Store.Get(key); ok {
		return pl, true
	}
	if !p.Store.HasShape(matrix.LegacyShape(m), key.Machine, key.Version) {
		return plan.Plan{}, false
	}
	old := p.storeKey(legacyFingerprint(m))
	pl, ok := p.Store.Get(old)
	if !ok {
		return plan.Plan{}, false
	}
	if err := pl.ValidateForFingerprint(m, old.Fingerprint); err != nil {
		p.Store.Delete(old)
		return plan.Plan{}, false
	}
	pl.Fingerprint = fp
	// The old file goes only once the new one is written, so a failed
	// write leaves the next process a plan to migrate.
	if p.Store.Put(key, pl) == nil {
		p.Store.Delete(old)
	}
	return pl, true
}

// Analyze diagnoses the matrix: bounds, classes, features, the chosen
// plan and its modeled result. Analysis always runs live — it is the
// diagnostic entry point — but the plan it returns is fully bound, so
// callers can persist or ship it.
func (p *Pipeline) Analyze(m *matrix.CSR) Analysis {
	a := Analysis{
		Bounds:   bounds.Measure(p.Exec, m),
		Features: features.Extract(m, p.featureParams()),
	}
	pl := p.bind(matrix.Fingerprint(m), p.optimizer().Plan(p.Exec, m))
	if pl.HasClasses {
		a.Classes = pl.Classes
	} else {
		a.Classes = classify.ProfileGuided{Th: p.Thresholds}.Classify(a.Bounds)
	}
	a.Optimized = opt.Evaluate(p.Exec, m, pl)
	pl.PredictedGflops = a.Optimized.Gflops
	a.Plan = pl
	return a
}

// PlanOnly selects an optimization without measuring bounds twice —
// the lightweight entry point for callers that want the decision
// without a prepared kernel. The returned plan is bound.
func (p *Pipeline) PlanOnly(m *matrix.CSR) plan.Plan {
	return p.bind(matrix.Fingerprint(m), p.optimizer().Plan(p.Exec, m))
}

// PriceOn analytically prices m on the given twin executor: the
// stored plan when a valid one exists (so capacity predictions agree
// with what serving will actually run), otherwise a plan decided
// entirely on the twin. Both paths cost zero hardware measurements —
// classification, candidate sweep and the final evaluation all run on
// the analytic model — and are deterministic for a fixed calibration,
// so a restarted process predicts identical capacity.
func (p *Pipeline) PriceOn(twin ex.Executor, m *matrix.CSR) (plan.Plan, ex.Result) {
	fp := matrix.Fingerprint(m)
	if p.Store != nil {
		if pl, ok := p.stored(m, fp); ok && pl.ValidateForFingerprint(m, fp) == nil {
			pl.Opt = pl.Opt.Canonical(twin.Machine())
			return pl, opt.Evaluate(twin, m, pl)
		}
	}
	tp := &Pipeline{
		Exec:           twin,
		Mode:           p.Mode,
		Tree:           p.Tree,
		TreeFeatures:   p.TreeFeatures,
		Thresholds:     p.Thresholds,
		AccuracyBudget: p.AccuracyBudget,
	}
	pl := tp.bind(fp, tp.optimizer().Plan(twin, m))
	return pl, opt.Evaluate(twin, m, pl)
}

// Prepare turns a matrix into an executable decision: a bound Plan
// plus, when the pipeline's executor supports persistent kernels, the
// compiled kernel (nil for analysis-only executors like the simulator
// — callers then prepare on a native executor themselves).
//
// With a Store attached, Prepare warm-starts: a store hit skips
// classification and the candidate sweep entirely — zero executor Run
// measurements — and goes straight to kernel compilation; the hit
// return reports which path ran. A miss tunes, measures the chosen
// configuration once (recording its rate in the plan), and writes the
// plan back. Stale store entries (fingerprint mismatch, wrong
// symmetry, or a prediction the twin gate rejects) are deleted and
// re-tuned.
func (p *Pipeline) Prepare(m *matrix.CSR) (plan.Plan, ex.PreparedKernel, bool) {
	pe, prepared := p.Exec.(ex.PreparedExecutor)
	fp := matrix.Fingerprint(m) // hashed once; key, validation and bind share it
	var key planstore.Key
	if p.Store != nil {
		key = p.storeKey(fp)
		if pl, ok := p.stored(m, fp); ok {
			// A plan stored before canonical storage may spell one
			// kernel with several knobs; serve it under the one name.
			pl.Opt = pl.Opt.Canonical(p.Exec.Machine())
			if err := pl.ValidateForFingerprint(m, fp); err == nil && p.twinTrusts(m, pl) {
				if pl.KernelISA != kernels.ISA() {
					// The knobs survive an ISA change — the same plan
					// dispatches to this host's kernel bodies — but the
					// recorded rate was earned by different code. One
					// re-measure (on real executors) keeps the stored
					// trajectory honest across hardware migrations.
					pl.KernelISA = kernels.ISA()
					if prepared {
						pl.MeasuredGflops = opt.Evaluate(p.Exec, m, pl).Gflops
					}
					_ = p.Store.Put(key, pl)
				}
				var k ex.PreparedKernel
				if prepared {
					k = pe.Prepare(m, pl.Opt)
				}
				return pl, k, true
			}
			p.Store.Delete(key)
		}
	}

	pl := p.bind(fp, p.optimizer().Plan(p.Exec, m))
	if p.Store != nil {
		// One evaluation of the winner so the stored artifact carries
		// the rate it was committed at: measured on real executors,
		// modeled on analytic ones.
		r := opt.Evaluate(p.Exec, m, pl)
		if prepared {
			pl.MeasuredGflops = r.Gflops
		} else {
			pl.PredictedGflops = r.Gflops
		}
	}
	if p.Twin != nil {
		// The twin's analytic price is the prediction future loads are
		// validated against, whatever executor tuned the plan.
		pl.PredictedGflops = opt.Evaluate(p.Twin, m, pl).Gflops
	}
	var k ex.PreparedKernel
	if prepared {
		k = pe.Prepare(m, pl.Opt)
	}
	if p.Store != nil {
		// Best-effort persistence: a full disk must not fail tuning.
		_ = p.Store.Put(key, pl)
	}
	return pl, k, false
}
