// Package opt assembles the paper's optimization pool (Table II), the
// class-to-optimization mapping, and the optimizer lineup evaluated in
// Section IV: the profile-guided and feature-guided optimizers, the
// oracle, and the two trivial optimizers of Table V. It also accounts
// for every optimizer's preprocessing cost — the quantity Table V
// amortizes against solver iterations.
package opt

import (
	"github.com/sparsekit/spmvtuner/internal/bounds"
	"github.com/sparsekit/spmvtuner/internal/classify"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/features"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/ml"
	"github.com/sparsekit/spmvtuner/internal/plan"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// Member is one of the five single optimizations of the pool; Table V
// calls them "5 in our case", Table II maps them to classes.
type Member int

const (
	// CompressVec: column-index delta compression + vectorization (MB).
	CompressVec Member = iota
	// Prefetch: software prefetching on x (ML).
	Prefetch
	// SplitRows: matrix decomposition for long rows (IMB, uneven rows).
	SplitRows
	// AutoSched: the OpenMP auto scheduling policy (IMB, uneven work).
	AutoSched
	// UnrollVec: inner-loop unrolling + vectorization (CMP).
	UnrollVec
	// NumMembers counts the pool.
	NumMembers
)

// SellC is the extended pool member introduced after the paper: the
// SELL-C-σ sliced-ELLPACK format (Kreutzer et al.), the wide-SIMD
// remedy for imbalanced short-row irregular matrices. It is
// deliberately NOT part of AllMembers — the trivial optimizers of
// Table V keep the paper's 5/15 candidate counts — but the classifier
// can select it (MembersFor) and the oracle always considers it
// (sellCandidates), so the oracle still dominates every classifier
// output.
const SellC Member = NumMembers

// SymSSS is the second extended pool member: symmetric (SSS) storage,
// the strongest MB-class remedy — only the lower triangle + diagonal
// stream per multiply, roughly halving matrix bytes. Like SellC it is
// NOT part of AllMembers (the Table V candidate counts stay the
// paper's); the classifier proposes it for MB-classed symmetric
// matrices (MembersFor) and the oracle sweeps it whenever the matrix
// carries the symmetric kind (symCandidates).
const SymSSS Member = NumMembers + 1

// String names the member like the paper's prose.
func (m Member) String() string {
	switch m {
	case CompressVec:
		return "compression+vectorization"
	case Prefetch:
		return "software-prefetching"
	case SplitRows:
		return "matrix-decomposition"
	case AutoSched:
		return "auto-scheduling"
	case UnrollVec:
		return "unrolling+vectorization"
	case SellC:
		return "sell-c-sigma"
	case SymSSS:
		return "symmetric-sss"
	default:
		return "unknown"
	}
}

// Apply folds the member's knobs into an Optim. A format member keeps
// the stronger of its format and o's (the order of the ex.Format
// constants), so a joint application runs one format.
func (m Member) Apply(o ex.Optim) ex.Optim {
	switch m {
	case CompressVec:
		o.Format = max(o.Format, ex.FormatDelta)
		o.Vectorize = true
	case Prefetch:
		o.Prefetch = true
	case SplitRows:
		o.Format = max(o.Format, ex.FormatSplit)
	case AutoSched:
		o.Schedule = sched.Auto
	case UnrollVec:
		o.Unroll = true
		o.Vectorize = true
	case SellC:
		// SELL-C-σ is a vectorized format: the chunk height is the
		// vector width, so selecting it implies vector execution.
		o.Format = max(o.Format, ex.FormatSellCS)
		o.Vectorize = true
	case SymSSS:
		o.Format = max(o.Format, ex.FormatSSS)
	}
	return o
}

// AllMembers lists the pool.
func AllMembers() []Member {
	return []Member{CompressVec, Prefetch, SplitRows, AutoSched, UnrollVec}
}

// longRowFactor is the nnz_max / nnz_avg ratio above which the IMB
// class selects matrix decomposition rather than auto scheduling
// (Section III-E compares exactly these two features).
const longRowFactor = 16

// MembersFor maps a class set to pool members per Table II. The IMB
// subcategory decision uses the structural features, as the paper
// describes: highly uneven row lengths (nnz_max >> nnz_avg) pick the
// decomposition; computational unevenness (large bw_sd) picks auto
// scheduling.
func MembersFor(set classify.Set, fs features.Set) []Member {
	var ms []Member
	if set.Has(classify.MB) {
		if fs.Symmetric {
			// A bandwidth-bound symmetric matrix gets symmetric
			// storage: halving the element stream beats re-encoding it
			// (Apply keeps SSS over Delta, so CompressVec joins only
			// for its vectorization half).
			ms = append(ms, SymSSS)
		}
		ms = append(ms, CompressVec)
	}
	if set.Has(classify.ML) {
		ms = append(ms, Prefetch)
	}
	if set.Has(classify.IMB) {
		switch {
		case fs.NNZMax > longRowFactor*fs.NNZAvg && fs.NNZMax > 256:
			ms = append(ms, SplitRows)
		case set.Has(classify.ML):
			// Imbalanced AND latency bound with no dominating rows:
			// many short irregular rows. SELL-C-σ's sorted chunks fix
			// the imbalance structurally while the column-padded
			// layout vectorizes rows too short for the row-wise CSR
			// vector kernel.
			ms = append(ms, SellC)
		default:
			ms = append(ms, AutoSched)
		}
	}
	if set.Has(classify.CMP) {
		ms = append(ms, UnrollVec)
	}
	return ms
}

// OptimFor composes the joint optimization for a class set (Section
// III-E: multiple detected bottlenecks apply their optimizations
// jointly).
func OptimFor(set classify.Set, fs features.Set) ex.Optim {
	var o ex.Optim
	for _, m := range MembersFor(set, fs) {
		o = m.Apply(o)
	}
	return o
}

// Optimizer is anything that can plan an optimized SpMV for a matrix
// on a platform. The decision is returned as the serializable Plan IR
// (internal/plan); optimizers fill the decision fields (optimizer
// name, classes, knobs, preprocessing cost) and leave identity binding
// — fingerprint, machine, schema version — to the pipeline layer that
// owns the matrix (core.Pipeline).
type Optimizer interface {
	Name() string
	Plan(e ex.Executor, m *matrix.CSR) plan.Plan
}

// The preprocessing-time constants of Section IV-D.
const (
	// profileIters is the number of iterations each profiling
	// micro-benchmark runs (baseline, P_ML kernel, P_CMP kernel).
	profileIters = 16
	// measureIters is the timing loop the trivial optimizers run per
	// candidate ("We run 64 SpMV iterations to get valid timing
	// measurements", Section IV-D).
	measureIters = 64
	// JITSeconds is the fixed runtime code-generation cost.
	JITSeconds = 2e-3
)

// sweepSeconds is the time of one streaming pass over the matrix at
// the platform's main-memory bandwidth: the unit of conversion and
// feature-extraction costs.
func sweepSeconds(m *matrix.CSR, mdl machine.Model) float64 {
	return float64(m.Bytes()) / (mdl.StreamMainGBs * 1e9)
}

// rowSweepSeconds is one pass over per-row metadata only (O(N)
// feature extraction).
func rowSweepSeconds(m *matrix.CSR, mdl machine.Model) float64 {
	return float64(m.NRows) * 24 / (mdl.StreamMainGBs * 1e9)
}

// ConversionSeconds is the format-conversion cost of the selected
// optimizations: the long-row decomposition and delta compression
// rewrite the matrix in two passes (analyze + emit); SELL-C-σ takes
// three (measure + window-sort row lengths, size chunks, emit the
// padded column-major storage); the symmetric extraction is priced at
// four. formats.ConvertSSS does less — one cursor-walk pass that checks
// symmetry and counts the lower triangle, then one copy pass — so the
// four sweeps overstate the host conversion; they stay the modeled
// price so Table V holds. The kernel knobs only select kernels. It
// prices o's canonical form on mdl, so a host Split configuration,
// which runs as CSR, converts nothing.
func ConversionSeconds(m *matrix.CSR, mdl machine.Model, o ex.Optim) float64 {
	o = o.Canonical(mdl)
	var s float64
	switch o.Format {
	case ex.FormatSplit, ex.FormatDelta:
		s = 2 * sweepSeconds(m, mdl)
	case ex.FormatSellCS:
		s = 3 * sweepSeconds(m, mdl)
	case ex.FormatSSS:
		s = 4 * sweepSeconds(m, mdl)
	}
	if o.EffectivePrecision() != ex.PrecF64 {
		// The reduced value stream is emitted in one extra pass over
		// the effective storage (check every value fits float32, then
		// narrow it).
		s += sweepSeconds(m, mdl)
	}
	return s
}

// FeatureExtractionSeconds prices extracting the named features: one
// row sweep if any O(N) feature is requested, plus one full matrix
// sweep if any O(NNZ) feature is (Table I complexities).
func FeatureExtractionSeconds(m *matrix.CSR, mdl machine.Model, names []features.Name) float64 {
	needRow, needNNZ := false, false
	for _, n := range names {
		switch n {
		case features.FSize, features.FDensity:
			// O(1)
		case features.FClusteringAvg, features.FMissesAvg:
			needNNZ = true
		default:
			needRow = true
		}
	}
	var s float64
	if needRow || needNNZ {
		s += rowSweepSeconds(m, mdl)
	}
	if needNNZ {
		s += sweepSeconds(m, mdl)
	}
	return s
}

// Baseline is the null optimizer: plain CSR with the default static
// nnz-balanced schedule (Section IV-A).
type Baseline struct{}

// Name implements Optimizer.
func (Baseline) Name() string { return "baseline" }

// Plan implements Optimizer.
func (Baseline) Plan(ex.Executor, *matrix.CSR) plan.Plan {
	return plan.Plan{Optimizer: "baseline"}
}

// ProfileGuided runs the micro-benchmark bounds, classifies with the
// Fig 4 rules, and applies the matching optimizations.
type ProfileGuided struct {
	Th     classify.Thresholds
	FeatPr features.Params
	// AccuracyBudget, when positive, opts the classifier into reduced-
	// precision value storage for MB-classed matrices: the strongest
	// variant whose documented bound and measured probe error fit the
	// budget is folded into the plan. Zero keeps every result exact f64.
	AccuracyBudget float64
}

// NewProfileGuided returns the optimizer with the paper's tuned
// thresholds.
func NewProfileGuided(fp features.Params) *ProfileGuided {
	return &ProfileGuided{Th: classify.DefaultThresholds(), FeatPr: fp}
}

// Name implements Optimizer.
func (*ProfileGuided) Name() string { return "profile-guided" }

// Plan implements Optimizer.
func (p *ProfileGuided) Plan(e ex.Executor, m *matrix.CSR) plan.Plan {
	b := bounds.Measure(e, m)
	set := classify.ProfileGuided{Th: p.Th}.Classify(b)
	fs := features.Extract(m, p.FeatPr)
	o := OptimFor(set, fs)
	probe := 0.0
	if p.AccuracyBudget > 0 && set.Has(classify.MB) {
		// Reduced precision is an MB-class remedy: only a bandwidth-
		// bound classification proposes it, and only after the measured
		// probe confirms the budget on this matrix.
		o = ApplyPrecision(m, o, p.AccuracyBudget)
		probe = probeSeconds(m, e)
	}

	// t_pre: the profiling micro-benchmarks (three timed kernels), the
	// O(N) features consulted for the IMB subcategory, conversion of
	// whatever was selected, and runtime code generation.
	mdl := e.Machine()
	perIter := b.Baseline.Seconds
	if b.PML > 0 {
		perIter += m.Flops() / b.PML / 1e9
	}
	if b.PCMP > 0 {
		perIter += m.Flops() / b.PCMP / 1e9
	}
	pre := profileIters*perIter +
		rowSweepSeconds(m, mdl) +
		ConversionSeconds(m, mdl, o) +
		probe +
		JITSeconds
	return plan.Plan{Optimizer: p.Name(), Classes: set, HasClasses: true, Opt: o, PreprocessSeconds: pre}
}

// FeatureGuided applies a pre-trained decision tree to cheaply
// extracted structural features (Section III-D). Training happens
// offline; Plan only pays feature extraction, the O(log n) tree query,
// conversions and code generation.
type FeatureGuided struct {
	Tree   *ml.Tree
	Names  []features.Name
	FeatPr features.Params
	// AccuracyBudget mirrors ProfileGuided.AccuracyBudget: positive
	// opts MB-classed matrices into in-budget reduced precision.
	AccuracyBudget float64
}

// NewFeatureGuided wraps a trained tree over the given feature subset.
func NewFeatureGuided(tree *ml.Tree, names []features.Name, fp features.Params) *FeatureGuided {
	return &FeatureGuided{Tree: tree, Names: names, FeatPr: fp}
}

// Name implements Optimizer.
func (*FeatureGuided) Name() string { return "feature-guided" }

// Plan implements Optimizer.
func (f *FeatureGuided) Plan(e ex.Executor, m *matrix.CSR) plan.Plan {
	fs := features.Extract(m, f.FeatPr)
	set := classify.SetFromLabels(f.Tree.Predict(fs.Vector(f.Names)))
	o := OptimFor(set, fs)
	probe := 0.0
	if f.AccuracyBudget > 0 && set.Has(classify.MB) {
		o = ApplyPrecision(m, o, f.AccuracyBudget)
		probe = probeSeconds(m, e)
	}
	mdl := e.Machine()
	pre := FeatureExtractionSeconds(m, mdl, f.Names) +
		ConversionSeconds(m, mdl, o) +
		probe +
		JITSeconds
	return plan.Plan{Optimizer: f.Name(), Classes: set, HasClasses: true, Opt: o, PreprocessSeconds: pre}
}

// candidateOptims returns the single-member candidates and, when pairs
// is set, the 2-combinations — the trivial-combined optimizer's 15
// configurations (5 singles + 10 pairs, Section IV-D). With triples,
// the 3-combinations join too: the classifiers can apply three
// optimizations jointly, so the oracle must consider them to dominate.
func candidateOptims(pairs, triples bool) []ex.Optim {
	members := AllMembers()
	var out []ex.Optim
	for _, m := range members {
		out = append(out, m.Apply(ex.Optim{}))
	}
	if pairs {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				out = append(out, members[j].Apply(members[i].Apply(ex.Optim{})))
			}
		}
	}
	if triples {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				for k := j + 1; k < len(members); k++ {
					out = append(out,
						members[k].Apply(members[j].Apply(members[i].Apply(ex.Optim{}))))
				}
			}
		}
	}
	return out
}

// sellCandidates returns the extended-format configurations beyond the
// Table V pool: SELL-C-σ alone and joined with each pool member the
// classifier can co-select (every subset of {prefetch, unrolling} —
// the Split and AutoSched members are mutually exclusive with SellC in
// MembersFor, and CompressVec joined with SellC keeps FormatSellCS,
// adding nothing). The oracle sweeps these so it dominates every
// configuration the classifiers can produce.
func sellCandidates() []ex.Optim {
	joinable := []Member{Prefetch, UnrollVec}
	out := make([]ex.Optim, 0, 4)
	for mask := 0; mask < 1<<len(joinable); mask++ {
		o := SellC.Apply(ex.Optim{})
		for i, m := range joinable {
			if mask&(1<<i) != 0 {
				o = m.Apply(o)
			}
		}
		out = append(out, o)
	}
	return out
}

// symCandidates returns the symmetric-storage configurations the
// oracle sweeps when the matrix carries the symmetric kind. There is
// exactly one: the SSS kernel has no vectorize/prefetch/unroll
// variants (both the native engine and the cost model treat those
// knobs as inert under FormatSSS), AutoSched is excluded by design
// (the reduction already spreads the mirrored work evenly and the
// binding resolves schedules statically), and CompressVec and
// SplitRows would keep FormatSSS — joining any of them would only
// re-measure SSS under another name.
func symCandidates() []ex.Optim {
	return []ex.Optim{SymSSS.Apply(ex.Optim{})}
}

// sweep measures all candidates and returns the best configuration
// (by modeled/measured time) plus the total preprocessing cost of
// trying everything. With extended set, the SELL-C-σ configurations
// join the pool. Candidates run in their canonical form on the
// executor's platform, each form once: on the host, knob sets that
// bind the same kernel are one candidate.
func sweep(e ex.Executor, m *matrix.CSR, pairs, triples, extended bool) (best ex.Optim, bestSecs, pre float64) {
	mdl := e.Machine()
	baseSecs := e.Run(ex.Config{Matrix: m}).Seconds
	best, bestSecs = ex.Optim{}, baseSecs
	seen := map[ex.Optim]bool{best: true}
	cands := candidateOptims(pairs, triples)
	if extended {
		cands = append(cands, sellCandidates()...)
		if m.Sym == matrix.SymSymmetric {
			// Gated on the annotated kind, not detection: the sweep
			// must not mutate or rescan matrices mid-flight. Callers
			// that want the oracle to consider SSS resolve the kind
			// first (the facade does at Tune time).
			cands = append(cands, symCandidates()...)
		}
	}
	for _, o := range cands {
		if o = o.Canonical(mdl); seen[o] {
			continue
		}
		seen[o] = true
		r := e.Run(ex.Config{Matrix: m, Opt: o})
		pre += ConversionSeconds(m, mdl, o) +
			measureIters*r.Seconds +
			JITSeconds
		if r.Seconds < bestSecs {
			best, bestSecs = o, r.Seconds
		}
	}
	return best, bestSecs, pre
}

// Oracle is the perfect optimizer of Fig 7: it always selects the best
// available configuration, including the 3-way joint applications the
// classifiers can produce. Its preprocessing cost equals the full
// sweep (it cannot know the winner without trying).
type Oracle struct {
	// AccuracyBudget, when positive, adds a reduced-precision
	// post-pass on the sweep winner (bestPrecisionFrom): f32 is
	// measured like any other candidate but kept only when the f64
	// winner is bandwidth bound and the probe confirms the budget.
	// Zero keeps the oracle exact f64.
	AccuracyBudget float64
}

// Plan implements Optimizer.
func (o *Oracle) Plan(e ex.Executor, m *matrix.CSR) plan.Plan {
	best, bestSecs, pre := sweep(e, m, true, true, true)
	if o.AccuracyBudget > 0 {
		var dp float64
		best, _, dp = bestPrecisionFrom(e, m, best, bestSecs, o.AccuracyBudget)
		pre += dp
	}
	return plan.Plan{Optimizer: o.Name(), Opt: best, PreprocessSeconds: pre}
}

// Name implements Optimizer.
func (*Oracle) Name() string { return "oracle" }

// TrivialSingle tries every single optimization and keeps the best
// (Table V's "trivial-single").
type TrivialSingle struct{}

// Name implements Optimizer.
func (TrivialSingle) Name() string { return "trivial-single" }

// Plan implements Optimizer.
func (t TrivialSingle) Plan(e ex.Executor, m *matrix.CSR) plan.Plan {
	best, _, pre := sweep(e, m, false, false, false)
	return plan.Plan{Optimizer: t.Name(), Opt: best, PreprocessSeconds: pre}
}

// TrivialCombined additionally tries all 2-combinations (Table V's
// "trivial-combined": 15 configurations).
type TrivialCombined struct{}

// Name implements Optimizer.
func (TrivialCombined) Name() string { return "trivial-combined" }

// Plan implements Optimizer.
func (t TrivialCombined) Plan(e ex.Executor, m *matrix.CSR) plan.Plan {
	best, _, pre := sweep(e, m, true, false, false)
	return plan.Plan{Optimizer: t.Name(), Opt: best, PreprocessSeconds: pre}
}

// Evaluate runs a plan and returns its result.
func Evaluate(e ex.Executor, m *matrix.CSR, p plan.Plan) ex.Result {
	return e.Run(ex.Config{Matrix: m, Opt: p.Opt})
}
