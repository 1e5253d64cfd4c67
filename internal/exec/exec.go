// Package exec defines the executor abstraction the tuner runs SpMV
// configurations through. Two implementations exist: internal/sim, an
// analytic cost model of the paper's platforms (KNC, KNL, Broadwell),
// and internal/native, real goroutine execution on the host. Bounds,
// classifiers and optimizers are written against this interface so the
// whole pipeline runs identically on modeled and real hardware.
package exec

import (
	"fmt"

	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// Optim selects the software optimizations applied to one SpMV run:
// the knobs of the paper's optimization pool (Table II).
type Optim struct {
	// Vectorize enables SIMD execution (8 lanes on Phi, 4 on
	// Broadwell). On the host it selects the dispatched gather body
	// (AVX-512/AVX2 assembly, an 8-accumulator pure-Go loop without
	// it) for CSR, and the C=8 chunk kernel for SELL-C-σ.
	Vectorize bool
	// Prefetch enables software prefetching of x[colind[j+d]] into L1
	// (the ML-class optimization). The simulator prices it for the
	// paper's platforms; on the host the gather body is the latency
	// remedy, so Canonical folds the knob into Vectorize.
	Prefetch bool
	// Unroll enables inner-loop unrolling (the CMP-class
	// optimization's scalar half). Priced on the paper's platforms;
	// folded into Vectorize on the host, like Prefetch.
	Unroll bool
	// Format selects the storage format the configuration runs and
	// its kernel family; the zero value is plain CSR.
	Format Format
	// Schedule selects the row-scheduling policy; the zero value is
	// the paper's default static nnz-balanced partitioning.
	Schedule sched.Policy
	// Precision selects the stored value precision (the MB-class
	// bandwidth lever that halves the value stream). The zero value is
	// full float64. Reduced precision applies to the value payload of
	// the format; see EffectivePrecision for the formats that honor it.
	Precision Precision
}

// Precision selects the value-storage precision of a configuration.
// The zero value is full double precision, so every pre-existing knob
// set keeps its meaning. Reduced precision shrinks only the stored
// value stream: kernels always accumulate in float64, and x/y vectors
// stay float64 everywhere.
type Precision int

const (
	// PrecF64 stores values as float64 — the default and the only
	// choice with bitwise-exact storage.
	PrecF64 Precision = iota
	// PrecF32 stores values as float32, halving the dominant value
	// stream of a bandwidth-bound SpMV. Per-entry storage rounding is
	// bounded by float32 epsilon (~1.2e-7 relative), so results carry
	// a relative error on the order of 1e-7..1e-6. A matrix whose
	// values do not fit float32 runs its f64 form instead.
	PrecF32
)

// String renders the precision for plan wire forms and knob strings.
func (p Precision) String() string {
	switch p {
	case PrecF32:
		return "f32"
	default:
		return "f64"
	}
}

// ParsePrecision inverts Precision.String.
func ParsePrecision(s string) (Precision, bool) {
	switch s {
	case "", "f64":
		return PrecF64, true
	case "f32":
		return PrecF32, true
	}
	return PrecF64, false
}

// Format identifies the storage format a configuration executes. The
// constants are ordered by strength: composing two format choices keeps
// the later constant (max), so SSS beats everything (halving the
// element stream outcompresses any re-encoding of it, and the SSS
// reduction spreads the mirrored work evenly), Split beats SELL-C-σ (a
// dominating long row would explode a chunk's padding), and SELL-C-σ
// beats Delta (the SELL layout replaces the index stream).
type Format int

const (
	// FormatCSR is the canonical row-wise layout (and what the bound
	// probes read).
	FormatCSR Format = iota
	// FormatDelta is DeltaCSR: delta-compressed column indices (the
	// MB-class optimization: compression + vectorization). On the host
	// every Delta plan runs the dispatched vector decoder, so
	// Canonical sets Vectorize with it.
	FormatDelta
	// FormatSellCS is SELL-C-σ: rows sorted by length in σ-windows,
	// chunks of C rows padded to the chunk width, column-major storage,
	// run by the chunked kernel — the wide-SIMD remedy for imbalanced
	// short-row irregular matrices.
	FormatSellCS
	// FormatSplit is the Fig 5 long-row decomposition (the IMB-class
	// optimization for uneven row lengths), priced by the simulator on
	// the paper's platforms only: the host has no decomposed kernel,
	// so Canonical resolves it to the gather body under the auto
	// schedule.
	FormatSplit
	// FormatSSS is symmetric storage: strictly lower triangle CSR +
	// diagonal, run by the symmetric kernel — the strongest MB-class
	// remedy, halving the dominant matrix stream at the price of
	// folding each thread's conflict window (the mirrored
	// contributions below its rows) into y after the barrier. Valid
	// only for matrices whose Sym kind is symmetric; the optimizers
	// gate on it.
	FormatSSS
)

// formatFacts holds what the packages share about each format.
var formatFacts = [...]struct {
	// wire names the format in plan files.
	wire string
	// tag names the format in Optim.String; lead puts it before the
	// kernel knobs' tags rather than after them.
	tag  string
	lead bool
	// f32 reports whether a float32 value payload exists: the formats
	// with contiguous value arrays. Delta and Split keep f64 values.
	f32 bool
}{
	FormatCSR:    {wire: "csr", f32: true},
	FormatDelta:  {wire: "delta-csr", tag: "compress", lead: true},
	FormatSellCS: {wire: "sell-c-sigma", tag: "sellcs", f32: true},
	FormatSplit:  {wire: "split-csr", tag: "split"},
	FormatSSS:    {wire: "sss", tag: "sym", f32: true},
}

// Valid reports whether f names a format.
func (f Format) Valid() bool { return f >= FormatCSR && int(f) < len(formatFacts) }

// String renders the format's plan wire name, e.g. "sell-c-sigma".
func (f Format) String() string {
	if !f.Valid() {
		return fmt.Sprintf("format(%d)", int(f))
	}
	return formatFacts[f].wire
}

// EffectivePrecision resolves the value precision a configuration
// actually stores: reduced precision is honored exactly on the formats
// with contiguous value payloads (CSR, SELL-C-σ and SSS); on Delta and
// Split the knob is inert — never converted, never priced.
func (o Optim) EffectivePrecision() Precision {
	if o.Format.Valid() && formatFacts[o.Format].f32 {
		return o.Precision
	}
	return PrecF64
}

// hostCodename is the platform identity of the native executor's
// model (machine.Host), the one plan.Machine records for host plans.
const hostCodename = "host"

// Canonical resolves the knob set to the form that names what runs on
// mdl's executor: two configurations share a canonical form exactly
// when the native engine binds them to the same kernel and partition
// for every matrix. On the host, Prefetch and Unroll fold into
// Vectorize (one dispatched gather body serves all three); every Delta
// configuration sets Vectorize (one dispatched vector decoder serves
// every delta knob set: the paper's MB pairing of compression with
// vectorization); so does every SELL-C-σ configuration (the host
// converts at the vector-width chunk height, which the C=8 chunk body
// serves); every Split configuration becomes the CSR gather body, and
// a static schedule becomes Auto, the pool's other IMB remedy (the
// host has no decomposed kernel: the gather body under Auto beat it on
// every suite matrix with long rows); knobs the format's body ignores
// are cleared — Vectorize, Prefetch and Unroll under SSS; Precision
// becomes EffectivePrecision. Delta and SSS run a static row partition under
// every schedule, so theirs resolves to static-rows or static-nnz;
// SELL-C-σ splits chunks by padded elements under either static
// schedule, so its static-rows becomes static-nnz. Every configuration
// on the paper's modeled platforms is returned unchanged: the
// simulator prices those knobs as distinct kernels there.
func (o Optim) Canonical(mdl machine.Model) Optim {
	if mdl.Codename != hostCodename {
		return o
	}
	f := o.Format
	c := Optim{Format: f, Schedule: o.Schedule, Precision: o.EffectivePrecision()}
	switch f {
	case FormatCSR:
		c.Vectorize = o.Vectorize || o.Prefetch || o.Unroll
	case FormatSplit:
		c.Format, c.Vectorize = FormatCSR, true
		if c.Schedule == sched.StaticNNZ || c.Schedule == sched.StaticRows {
			c.Schedule = sched.Auto
		}
	case FormatSellCS, FormatDelta:
		c.Vectorize = true
	}
	static := f == FormatDelta || f == FormatSSS
	if (static && c.Schedule != sched.StaticRows) ||
		(f == FormatSellCS && c.Schedule == sched.StaticRows) {
		c.Schedule = sched.StaticNNZ
	}
	return c
}

// String renders the enabled optimizations compactly, e.g.
// "compress+vec+prefetch@static-nnz".
func (o Optim) String() string {
	s := ""
	add := func(tag string, on bool) {
		if !on || tag == "" {
			return
		}
		if s != "" {
			s += "+"
		}
		s += tag
	}
	f := formatFacts[FormatCSR]
	if o.Format.Valid() {
		f = formatFacts[o.Format]
	}
	add(f.tag, f.lead)
	add("vec", o.Vectorize)
	add("prefetch", o.Prefetch)
	add("unroll", o.Unroll)
	add(f.tag, !f.lead)
	add(o.Precision.String(), o.Precision != PrecF64)
	if s == "" {
		s = "none"
	}
	return fmt.Sprintf("%s@%s", s, o.Schedule)
}

// Probe selects one of the bound micro-benchmarks of Section III-B,
// which measure what the baseline would reach with one bottleneck
// removed. A probe does not compute A*x: it is a measurement, never a
// plan, so no Optim can express one. The zero value runs no probe.
//
// On the host the two probe bodies (kernels.RegularizedRange and
// kernels.UnitStrideRange) are byte-identical today and neither loads
// a column index, so P_ML and P_CMP read the same timing; step 1 of
// ROADMAP.md's "Train and check the tuner's decisions on the host"
// item fixes that.
type Probe int

const (
	// ProbeML is the P_ML micro-benchmark: every access to x is made
	// regular by reading x at the row index instead of the column
	// index.
	ProbeML Probe = iota + 1
	// ProbeCMP is the P_CMP micro-benchmark: indirect references are
	// eliminated entirely, so no column index is loaded.
	ProbeCMP
)

// Config is one executable SpMV setup.
type Config struct {
	Matrix *matrix.CSR
	// Threads overrides the platform thread count when positive.
	Threads int
	Opt     Optim
	// Probe, when nonzero, runs that bound micro-benchmark over the
	// baseline CSR under the default schedule in place of an SpMV;
	// executors ignore Opt then.
	Probe Probe
}

// Result reports one SpMV execution (or model evaluation).
type Result struct {
	// Seconds is the wall time of a single SpMV operation.
	Seconds float64
	// ThreadSeconds is each thread's busy time for one operation; the
	// P_IMB bound takes its median.
	ThreadSeconds []float64
	// Gflops is 2*NNZ / Seconds / 1e9.
	Gflops float64
	// MemBytes is the estimated (sim) or modeled (native) main-memory
	// traffic of one operation.
	MemBytes float64
	// Breakdown explains which resource bound the run (sim only;
	// zero-valued for native runs).
	Breakdown Breakdown
}

// Breakdown decomposes the modeled execution time of the critical
// thread into the three roofline terms of the cost model.
type Breakdown struct {
	ComputeSeconds   float64
	BandwidthSeconds float64
	LatencySeconds   float64
	// GlobalBWSeconds is the chip-level bandwidth floor
	// total_bytes / B_max.
	GlobalBWSeconds float64
}

// Binding names the dominant term.
func (b Breakdown) Binding() string {
	max, name := b.ComputeSeconds, "compute"
	if b.BandwidthSeconds > max {
		max, name = b.BandwidthSeconds, "bandwidth"
	}
	if b.LatencySeconds > max {
		max, name = b.LatencySeconds, "latency"
	}
	if b.GlobalBWSeconds > max {
		name = "bandwidth"
	}
	return name
}

// Executor runs SpMV configurations on some platform.
type Executor interface {
	// Machine returns the platform model this executor represents.
	Machine() machine.Model
	// Run evaluates one configuration and returns its result.
	Run(cfg Config) Result
}

// PreparedKernel is a compiled, reusable SpMV: one (matrix,
// optimization) pair with every planning artifact — converted formats,
// schedule partitions, reduction buffers, kernel selection —
// materialized up front, so steady-state multiplies do no planning
// work and no heap allocation. Implementations are safe for concurrent
// use.
type PreparedKernel interface {
	// MulVec computes y = A*x.
	MulVec(x, y []float64)
	// MulVecBatch computes ys[i] = A*xs[i] for every pair, keeping
	// workers hot across the batch (the repeated-multiply serving
	// path: iterative solvers, PageRank, multi-user traffic).
	// The native engine streams the matrix once per group of 8 (then
	// one of 4) vectors on the CSR float64 binding only; every other
	// binding runs the batch vector by vector. The aliasing rule is
	// blanket: no input vector may overlap ANY output vector — earlier
	// groups' outputs are written before later groups' inputs are
	// read.
	MulVecBatch(xs, ys [][]float64)
	// MulMat computes Y = A*X for k right-hand sides stored in the
	// interleaved block layout (X[j*k+l] is element j of vector l;
	// see matrix.PackBlock): one matrix stream for the block where
	// MulVecBatch would block it, k MulVec calls on gathered columns
	// otherwise. len(x) must be NCols*k and len(y) NRows*k; x and y
	// must not alias.
	MulMat(x, y []float64, k int)
	// Opt returns the configuration the kernel was compiled for.
	Opt() Optim
	// Threads returns the execution width chosen at preparation time.
	Threads() int
}

// Releaser is implemented by executors that can free the cached
// resources of ONE matrix — converted formats and memoized prepared
// kernels — without tearing the executor down. The serving layer's
// kernel-cache eviction needs exactly this granularity: Close releases
// everything, Release only what the evicted matrix pinned. Kernels
// already handed out for the matrix stay usable (their holders keep
// the references alive); a later Prepare of the same matrix rebuilds
// from scratch — or, through a plan store, warm-starts from the stored
// decision with zero new tuning measurements.
type Releaser interface {
	Release(m *matrix.CSR)
}

// PreparedExecutor is an Executor that can compile configurations into
// persistent kernels. internal/native implements it; the analytic
// simulator does not (there is nothing to execute), so callers fall
// back to planning-only behavior when the assertion fails.
type PreparedExecutor interface {
	Executor
	// Prepare compiles one configuration.
	Prepare(m *matrix.CSR, o Optim) PreparedKernel
	// Close releases the executor's persistent resources (worker
	// pool). Idempotent; prepared kernels stay usable afterwards via a
	// transient fallback path.
	Close() error
}

// GflopsOf converts a per-operation time into a rate for m.
func GflopsOf(m *matrix.CSR, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return m.Flops() / seconds / 1e9
}
