// Package spmvtuner is a matrix- and architecture-adaptive optimizer
// for sparse matrix-vector multiplication (SpMV), reproducing Elafrou,
// Goumas and Koziris, "Performance Analysis and Optimization of Sparse
// Matrix-Vector Multiplication on Modern Multi- and Many-Core
// Processors" (ICPP 2017).
//
// The tuner detects the performance bottlenecks of a sparse matrix on
// a target platform — memory bandwidth (MB), memory latency (ML),
// thread imbalance (IMB), computation (CMP) — and applies only the
// optimizations that address them: column-index delta compression,
// software prefetching, long-row decomposition, adaptive scheduling,
// unrolling and vectorization.
//
// Quick start:
//
//	m, _ := spmvtuner.Load("matrix.mtx")
//	tuned := spmvtuner.NewTuner().Tune(m)
//	y := make([]float64, m.Rows())
//	tuned.MulVec(x, y) // optimized SpMV on the host
//
// Platform models for the paper's machines (Intel Xeon Phi KNC/KNL and
// Broadwell) support what-if analysis without the hardware:
//
//	t := spmvtuner.NewTuner(spmvtuner.OnPlatform("knl"))
//	a := t.Analyze(m) // bounds, classes, chosen optimizations
package spmvtuner

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"github.com/sparsekit/spmvtuner/internal/calib"
	"github.com/sparsekit/spmvtuner/internal/classify"
	"github.com/sparsekit/spmvtuner/internal/core"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/mmio"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/planstore"
	"github.com/sparsekit/spmvtuner/internal/sim"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// Matrix is an immutable sparse matrix in CSR form.
type Matrix struct {
	csr *matrix.CSR
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.csr.NRows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.csr.NCols }

// NNZ returns the stored-element count.
func (m *Matrix) NNZ() int { return m.csr.NNZ() }

// Name returns the matrix name (suite name or file stem), possibly
// empty.
func (m *Matrix) Name() string { return m.csr.Name }

// MulVec computes y = A*x with the plain sequential reference kernel.
// For tuned parallel execution use Tuner.Tune and Tuned.MulVec.
func (m *Matrix) MulVec(x, y []float64) { m.csr.MulVec(x, y) }

// Load reads a Matrix Market (.mtx) file. The matrix is named by the
// file stem: "/data/bcsstk17.mtx" loads as "bcsstk17".
func Load(path string) (*Matrix, error) {
	csr, err := mmio.ReadFile(path)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(path)
	csr.Name = strings.TrimSuffix(base, filepath.Ext(base))
	return &Matrix{csr: csr}, nil
}

// Save writes the matrix in Matrix Market format.
func Save(path string, m *Matrix) error { return mmio.WriteFile(path, m.csr) }

// Builder accumulates entries for a new matrix.
type Builder struct {
	coo *matrix.COO
}

// NewBuilder starts a rows x cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{coo: matrix.NewCOO(rows, cols)}
}

// Add inserts one entry; duplicates sum.
func (b *Builder) Add(row, col int, val float64) *Builder {
	b.coo.Add(row, col, val)
	return b
}

// Build finalizes the matrix.
func (b *Builder) Build() *Matrix { return &Matrix{csr: b.coo.ToCSR()} }

// SuiteMatrix generates a suite matrix by name at the given scale
// (1.0 = reproduction size): one of the paper's 32 evaluation
// matrices (synthetic stand-ins for the SuiteSparse originals) or one
// of the symmetric SPD recipes (lap2d, lap3d, sym-fem).
func SuiteMatrix(name string, scale float64) (*Matrix, error) {
	csr := suite.ByName(name, scale)
	if csr == nil {
		return nil, fmt.Errorf("spmvtuner: unknown suite matrix %q", name)
	}
	return &Matrix{csr: csr}, nil
}

// SuiteNames lists every SuiteMatrix-resolvable name: the evaluation
// suite in paper order, then the symmetric SPD suite.
func SuiteNames() []string { return suite.Names() }

// Tuner plans optimized SpMV executions.
//
// A Tuner is safe for concurrent use: Tune, Analyze and Close may be
// called from multiple goroutines (the tuner serializes the analysis
// pipeline and the shared native executor internally), and the Tuned
// kernels it returns are independently safe for concurrent multiplies.
//
// Every Tuner carries a plan store: tuning decisions are keyed by the
// matrix's structural fingerprint, so a second Tune of a structurally
// identical matrix — same sparsity, values may differ — skips
// classification and the candidate sweep entirely and reuses the
// stored plan. The default store is in-memory; WithPlanStore persists
// it to disk so warm starts survive process restarts and plans can be
// shipped between hosts (see docs/guide/plans.md).
type Tuner struct {
	mu       sync.Mutex // guards pipeline, store and the shared prepare path
	pipeline *core.Pipeline
	nat      *native.Executor
	store    *planstore.Store
	platform machine.Model
	modeled  bool
	closed   bool // guarded by mu

	// hostModel is the model of the machine kernels actually run on —
	// machine.Host(), with calibrated ceilings applied when
	// WithCalibration is configured. twin is the analytic executor over
	// it: the digital twin that validates shipped plans and prices
	// serving capacity.
	hostModel machine.Model
	twin      *sim.Executor
	cal       calib.Calibration
	calDir    string
	calOn     bool
	calProbed bool
}

// hostProbes is the probe bundle calibration runs against the
// hardware. A package variable so tests can substitute counting fakes
// and prove exactly how often the machine is measured.
var hostProbes = native.HostProbes()

// Option configures a Tuner.
type Option func(*Tuner) error

// OnPlatform analyzes against a modeled platform: "knc", "knl", "bdw"
// or "host". Tuned kernels still execute natively; only the analysis
// uses the model.
func OnPlatform(code string) Option {
	return func(t *Tuner) error {
		mdl, err := machine.ByCodename(code)
		if err != nil {
			return err
		}
		t.platform = mdl
		t.modeled = true
		return nil
	}
}

// WithPlanStore persists tuning decisions under dir (created if
// missing): every cold Tune writes its plan there, and later Tunes —
// in this process or any future one, on this host or another — of a
// fingerprint-identical matrix warm-start from the stored plan
// instead of re-classifying and re-sweeping. The directory holds one
// human-readable JSON file per (matrix fingerprint, platform, plan
// version); see docs/guide/plans.md for the layout and shipping
// guidance.
//
// An unusable directory (permissions, read-only filesystem) fails
// Tuner construction — NewTuner panics, as with every invalid option.
// That is deliberate fail-fast behavior: a serving process whose
// configured plan store cannot be opened should stop at startup, not
// silently re-tune cold on every restart. Callers that prefer to
// degrade to the in-memory store should probe the directory
// themselves and drop the option.
func WithPlanStore(dir string) Option {
	return func(t *Tuner) error {
		s, err := planstore.Open(dir, planstore.DefaultCapacity)
		if err != nil {
			return err
		}
		t.store = s
		return nil
	}
}

// WithCalibration measures this host's real performance ceilings —
// saturated and per-core STREAM bandwidth, cache-resident rate,
// scalar compute rate — and persists the result under dir (created if
// missing) as a versioned JSON artifact, typically the same directory
// as the plan store. The host is probed exactly once, ever: later
// Tuners load the artifact with zero probe runs. Corrupt, stale (the
// machine's thread count changed) or wrong-version artifacts heal by
// re-probing and overwriting.
//
// Calibration turns the analysis model into a digital twin of the
// host: Analyze and modeled predictions price against measured
// ceilings, plans loaded from the plan store are analytically
// re-validated against the twin before being trusted (a plan tuned on
// a different machine re-tunes instead of silently serving), and
// Server.CapacityPlan sizes replica fleets from the measured
// bandwidth budget.
//
// An unusable directory fails Tuner construction, like WithPlanStore.
func WithCalibration(dir string) Option {
	return func(t *Tuner) error {
		if dir == "" {
			return fmt.Errorf("spmvtuner: calibration directory must not be empty")
		}
		t.calDir = dir
		t.calOn = true
		return nil
	}
}

// WithPrecisionBudget grants the planner an accuracy budget: a
// componentwise relative error bound eps the application tolerates on
// y = A*x. With a budget of at least 1e-6 (the documented f32 bound),
// bandwidth-bound matrices may be stored with f32 values, halving the
// dominant memory traffic; a smaller budget admits nothing. The
// planner verifies the actual error on each matrix against the f64
// reference before committing, and a matrix holding a finite value
// float32 cannot keep within 1e-6 (beyond its range, or deep in its
// subnormals) always runs exact f64, never a silently truncated
// value. Without this option every result stays exact f64 — the
// tuner never trades accuracy by default. See docs/guide/precision.md.
func WithPrecisionBudget(eps float64) Option {
	return func(t *Tuner) error {
		if eps <= 0 {
			return fmt.Errorf("spmvtuner: precision budget must be positive")
		}
		t.pipeline.AccuracyBudget = eps
		return nil
	}
}

// WithThresholds overrides the profile-guided classifier
// hyperparameters (defaults: the paper's T_ML=1.25, T_IMB=1.24).
func WithThresholds(tml, timb float64) Option {
	return func(t *Tuner) error {
		if tml <= 0 || timb <= 0 {
			return fmt.Errorf("spmvtuner: thresholds must be positive")
		}
		th := classify.DefaultThresholds()
		th.TML, th.TIMB = tml, timb
		t.pipeline.Thresholds = th
		return nil
	}
}

// NewTuner builds a tuner. Without options it analyzes on a host
// model and executes natively.
func NewTuner(opts ...Option) *Tuner {
	t := &Tuner{platform: machine.Host()}
	t.pipeline = core.New(nil) // executor chosen below, after options
	for _, o := range opts {
		if err := o(t); err != nil {
			panic(err) // options with invalid static arguments are programming errors
		}
	}

	// Resolve the host model before building the native executor: with
	// calibration, the executor describes itself with measured ceilings.
	host := machine.Host()
	if t.calOn {
		c, probed, err := calib.LoadOrMeasure(t.calDir, hostProbes, host)
		if err != nil {
			panic(err) // unusable calibration dir: fail fast, like WithPlanStore
		}
		t.cal, t.calProbed = c, probed
		host = c.Apply(host)
	} else {
		t.cal = calib.FromModel(host)
	}
	t.hostModel = host
	t.nat = native.NewWithModel(host)
	t.twin = sim.New(host)

	if t.modeled {
		if t.platform.Codename == host.Codename {
			// OnPlatform("host") + calibration: model the real machine,
			// not the static guess.
			t.platform = host
		}
		t.pipeline.Exec = sim.New(t.platform)
	} else {
		t.pipeline.Exec = t.nat
	}
	if t.calOn {
		// The calibrated twin gates store-loaded plans: a plan whose
		// recorded prediction the local twin cannot reproduce was tuned
		// on a different machine and is re-tuned instead of trusted.
		t.pipeline.Twin = t.twin
	}
	if t.store == nil {
		t.store = planstore.New(planstore.DefaultCapacity)
	}
	t.pipeline.Store = t.store
	return t
}

// Analysis reports a matrix's diagnosis on the tuner's platform.
type Analysis struct {
	// Classes are the detected bottlenecks, e.g. "{ML,IMB}".
	Classes string
	// Optimizations describes the selected configuration, e.g.
	// "prefetch+split@static-nnz".
	Optimizations string
	// BaselineGflops and OptimizedGflops compare before/after on the
	// analysis platform.
	BaselineGflops  float64
	OptimizedGflops float64
	// PreprocessSeconds is the modeled cost of deciding + converting.
	PreprocessSeconds float64
	// Fingerprint is the matrix's structural identity — the key
	// tuning decisions are stored and shipped under.
	Fingerprint string
	// KernelISA is the instruction set the dispatched kernels execute
	// on this host ("avx512", "avx2", "scalar") — the provenance the
	// plan carries so a warm start on different hardware re-measures.
	KernelISA string
	// Precision is the value-storage precision the kernel executes:
	// "f64" (exact, the default) or "f32". f32 appears only under
	// WithPrecisionBudget, and only when every value fits float32; a
	// warm start on values that do not fit runs, and reports, f64.
	Precision string
	// Warm reports that the decision came from the plan store: no
	// classification and no candidate sweep ran (Tune only; Analyze
	// always diagnoses live).
	Warm bool
}

// Analyze diagnoses the matrix without committing to execution. Safe
// for concurrent use with Tune and other Analyze calls.
func (t *Tuner) Analyze(m *Matrix) Analysis {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Resolve symmetry under the tuner lock: SymmetryKind caches on the
	// matrix, so two concurrent Analyze/Tune calls on the SAME matrix
	// must not both run the detection.
	m.csr.SymmetryKind()
	a := t.pipeline.Analyze(m.csr)
	return Analysis{
		Classes:           a.Classes.String(),
		Optimizations:     a.Plan.Opt.String(),
		BaselineGflops:    a.Bounds.PCSR,
		OptimizedGflops:   a.Optimized.Gflops,
		PreprocessSeconds: a.Plan.PreprocessSeconds,
		Fingerprint:       a.Plan.Fingerprint,
		KernelISA:         a.Plan.KernelISA,
		Precision:         a.Plan.Opt.EffectivePrecision().String(),
	}
}

// Tuned is a matrix bound to its selected optimizations, compiled into
// a persistent kernel: converted formats, schedule partitions and
// reduction buffers are built once at Tune time, and every MulVec after
// that dispatches to the tuner's long-lived worker pool without
// planning work or heap allocation. Safe for concurrent use.
type Tuned struct {
	m    *Matrix
	opt  ex.Optim
	nat  *native.Executor // keeps the worker pool alive for prep
	prep ex.PreparedKernel
	info Analysis
}

// Tune analyzes the matrix and compiles an optimized persistent native
// kernel. Symmetry is resolved up front (one O(NNZ) detection, cached
// on the matrix), so a symmetric matrix transparently gets the SSS
// storage path whenever the planner classifies it bandwidth bound —
// no caller annotation needed.
//
// Tune consults the tuner's plan store first: a hit on the matrix's
// structural fingerprint skips classification and the candidate sweep
// entirely (Info().Warm reports which path ran); a miss tunes,
// measures the chosen configuration, and stores the decision for
// every later Tune. Safe for concurrent use.
func (t *Tuner) Tune(m *Matrix) *Tuned {
	t.mu.Lock()
	defer t.mu.Unlock()
	m.csr.SymmetryKind() // under t.mu: the detection caches onto the matrix
	pl, prep, warm := t.pipeline.Prepare(m.csr)
	if prep == nil {
		// Modeled analysis: the plan came from the simulator, but
		// execution is always native.
		prep = t.nat.Prepare(m.csr, pl.Opt)
	}
	info := Analysis{
		Classes:           pl.Classes.String(),
		Optimizations:     pl.Opt.String(),
		PreprocessSeconds: pl.PreprocessSeconds,
		Fingerprint:       pl.Fingerprint,
		KernelISA:         pl.KernelISA,
		Precision:         prep.Opt().EffectivePrecision().String(),
		Warm:              warm,
	}
	if pl.MeasuredGflops > 0 {
		info.OptimizedGflops = pl.MeasuredGflops
	} else {
		info.OptimizedGflops = pl.PredictedGflops
	}
	return &Tuned{m: m, opt: pl.Opt, nat: t.nat, prep: prep, info: info}
}

// Release frees the prepared resources Tune built for m — converted
// formats and cached kernels held by the tuner's executor — without
// touching the plan store or any other matrix. Kernels already
// returned by Tune stay usable (they own their structures); a later
// Tune of m warm-starts from the stored plan and recompiles. This is
// the per-entry eviction path a memory-budgeted serving layer needs:
// Close tears down everything, Release only one matrix's footprint.
// Releasing a never-tuned matrix is a no-op. Safe for concurrent use.
func (t *Tuner) Release(m *Matrix) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nat.Release(m.csr)
}

// Close flushes the plan store and releases the tuner's persistent
// worker pool. It is idempotent and optional — a dropped Tuner is
// reclaimed by a finalizer — and kernels tuned from it remain usable
// afterwards via a transient fallback path. The first error from
// either step is returned; both always run.
func (t *Tuner) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	serr := t.store.Close()
	nerr := t.nat.Close()
	if serr != nil {
		return serr
	}
	return nerr
}

// MulVec computes y = A*x with the tuned parallel kernel. Steady-state
// calls are allocation-free and safe from concurrent goroutines. x and
// y must not overlap (matrix.Aliased): y is written while x is still
// being gathered, so an aliased call would silently compute garbage.
func (k *Tuned) MulVec(x, y []float64) {
	if len(x) != k.m.Cols() || len(y) != k.m.Rows() {
		panic(fmt.Sprintf("spmvtuner: MulVec dimension mismatch: x=%d y=%d for %dx%d",
			len(x), len(y), k.m.Rows(), k.m.Cols()))
	}
	if matrix.Aliased(x, y) {
		panic("spmvtuner: MulVec input and output must not alias")
	}
	k.prep.MulVec(x, y)
}

// MulVecBatch computes ys[i] = A*xs[i] for every pair, keeping the
// worker pool hot across the whole batch — the serving shape where one
// tuned matrix multiplies many user vectors back to back. A plan that
// runs the CSR float64 kernel streams the matrix once per group of 8
// vectors, then once for a group of 4 when at least 4 remain; every
// other vector, and every vector of every other plan, runs through
// MulVec's kernel (see docs/guide/batching.md). The aliasing rule is
// blanket: no input vector may overlap ANY output vector.
func (k *Tuned) MulVecBatch(xs, ys [][]float64) {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("spmvtuner: MulVecBatch length mismatch: %d inputs, %d outputs", len(xs), len(ys)))
	}
	for i := range xs {
		if len(xs[i]) != k.m.Cols() || len(ys[i]) != k.m.Rows() {
			panic(fmt.Sprintf("spmvtuner: MulVecBatch dimension mismatch at %d: x=%d y=%d for %dx%d",
				i, len(xs[i]), len(ys[i]), k.m.Rows(), k.m.Cols()))
		}
	}
	// The aliasing rule is blanket across the batch, not per pair: an
	// earlier group's outputs are written before a later group's inputs
	// are packed, so ANY shared input/output buffer reads overwritten
	// data.
	if matrix.AnyAliased(xs, ys) {
		panic("spmvtuner: MulVecBatch inputs and outputs must not alias")
	}
	k.prep.MulVecBatch(xs, ys)
}

// MulMat computes Y = A*X for nrhs right-hand sides stored in the
// interleaved block layout: X is one []float64 of length Cols()*nrhs
// where element j of vector l lives at X[j*nrhs+l], and Y likewise
// with Rows()*nrhs. A CSR float64 plan at nrhs = 4 or 8 streams the
// matrix once for the block, with no packing cost; every other case
// gathers each vector, multiplies it as MulVec does and scatters the
// result, so it equals nrhs MulVec calls bit for bit. X and Y must not
// alias.
func (k *Tuned) MulMat(x, y []float64, nrhs int) {
	if nrhs < 1 {
		panic(fmt.Sprintf("spmvtuner: MulMat nrhs %d < 1", nrhs))
	}
	if len(x) != k.m.Cols()*nrhs || len(y) != k.m.Rows()*nrhs {
		panic(fmt.Sprintf("spmvtuner: MulMat dimension mismatch: x=%d y=%d for %dx%d with nrhs=%d",
			len(x), len(y), k.m.Rows(), k.m.Cols(), nrhs))
	}
	if matrix.Aliased(x, y) {
		panic("spmvtuner: MulMat input and output must not alias")
	}
	k.prep.MulMat(x, y, nrhs)
}

// Info returns the tuning decision.
func (k *Tuned) Info() Analysis { return k.info }

// Classes returns the detected bottleneck classes, e.g. "{ML,IMB}".
func (k *Tuned) Classes() string { return k.info.Classes }

// Optimizations returns the selected configuration string.
func (k *Tuned) Optimizations() string { return k.info.Optimizations }
