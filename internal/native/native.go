// Package native executes SpMV configurations for real on the host
// machine: a persistent worker pool driving parallel kernels with
// per-thread timing, prepared (compile-once, run-many) kernel objects,
// and a STREAM-triad bandwidth probe for calibrating the host model.
// Run and StreamTriad time their kernels with stats.SecondsPerCall,
// the warm-cache methodology of Section IV-A. It
// implements the same Executor interface as the simulator, so the
// entire classification/optimization pipeline runs unchanged on real
// hardware.
package native

import (
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/sparsekit/spmvtuner/internal/calib"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/plan"
	"github.com/sparsekit/spmvtuner/internal/stats"
)

// Executor runs configurations natively.
type Executor struct {
	model machine.Model
	// Iters is the number of kernel operations per measurement
	// (Section IV-A uses 128; the default here is lighter so tests
	// stay fast).
	Iters int

	// workers is the long-lived pool every kernel dispatches through;
	// Close parks it permanently.
	workers *Pool

	mu          sync.Mutex
	conversions map[conversionKind]map[*matrix.CSR]any // guarded by mu; see memoized
	prepared    map[preparedKey]*Prepared              // guarded by mu
}

var (
	_ ex.Executor         = (*Executor)(nil)
	_ ex.PreparedExecutor = (*Executor)(nil)
	_ ex.PreparedKernel   = (*Prepared)(nil)
)

// preparedKey identifies one compiled kernel: Optim is a comparable
// value type, so (matrix identity, configuration) keys the cache.
type preparedKey struct {
	m *matrix.CSR
	o ex.Optim
}

// conversionKind identifies one kind of memoized format conversion:
// a storage format at a value precision.
type conversionKind struct {
	f    ex.Format
	prec ex.Precision
}

// New returns a native executor modeling itself as the host. Its worker
// pool lives until Close; a finalizer reclaims the workers if the
// executor is dropped without closing.
func New() *Executor {
	return NewWithModel(hostModel())
}

// hostModel is machine.Host with the SIMD width the dispatched kernels
// actually execute at: the generic host guess says AVX2 (4 lanes), but
// the cost model should price vector ops at the width kernel dispatch
// detected — 8 on AVX-512 hosts, 1 when assembly is compiled out
// (noasm or non-amd64), where "vectorized" kernels run scalar bodies.
func hostModel() machine.Model {
	m := machine.Host()
	m.SIMDLanes = kernels.ISALanes()
	return m
}

// NewWithModel returns a native executor describing itself with m —
// typically a calibrated host model whose ceilings were measured
// rather than guessed. The worker pool spans every hardware thread
// (not just physical cores: SpMV's irregular gathers hide latency
// well under SMT, and shrinking the pool to the core count would
// regress hyperthreaded hosts); kernels dispatch at most GOMAXPROCS
// of its slots (see defaultThreads).
func NewWithModel(m machine.Model) *Executor {
	e := &Executor{
		model:       m,
		Iters:       3,
		conversions: make(map[conversionKind]map[*matrix.CSR]any),
		prepared:    make(map[preparedKey]*Prepared),
	}
	e.workers = NewPool(e.model.Threads())
	// The pool's goroutines reference only the pool, so an unreachable
	// Executor is collectable; closing from the finalizer unparks and
	// ends the workers.
	runtime.SetFinalizer(e, func(e *Executor) { e.workers.Close() })
	return e
}

// Close shuts the worker pool down and drops the prepared-kernel
// cache. It is idempotent; kernels already prepared from this executor
// stay usable (callers hold their own references) and fall back to
// transient goroutines.
func (e *Executor) Close() error {
	runtime.SetFinalizer(e, nil)
	e.workers.Close()
	e.mu.Lock()
	e.prepared = make(map[preparedKey]*Prepared)
	e.mu.Unlock()
	return nil
}

// Machine implements exec.Executor.
func (e *Executor) Machine() machine.Model { return e.model }

// Release implements exec.Releaser: it drops every cached resource the
// executor holds for m — the memoized format conversions (DeltaCSR,
// SELL-C-σ, SSS, and the precision-reduced CSR, SELL-C-σ and SSS
// forms) and all prepared kernels compiled for m —
// so the memory is reclaimable once the caller drops its own
// references. Kernels already handed out keep working (they own their
// structures); the next Prepare of m rebuilds. This is the per-entry
// eviction hook the serving layer's LRU uses; Close remains the
// whole-executor teardown.
func (e *Executor) Release(m *matrix.CSR) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, kind := range e.conversions {
		delete(kind, m)
	}
	for k := range e.prepared {
		if k.m == m {
			delete(e.prepared, k)
		}
	}
}

// defaultThreads picks the thread count for a matrix: every hardware
// thread the model describes, but never more than GOMAXPROCS, the Go
// control for how many threads may run at once; then at most one
// thread per 65536 nonzeros and one per row, so small matrices do not
// drown in fork/join overhead. No measurement decides it: fresh
// executors on one host agree, and at the default GOMAXPROCS it is the
// width the host model prices. A CPU-throttled container lowers
// GOMAXPROCS (Go 1.25 and later derive it from the cgroup quota).
func (e *Executor) defaultThreads(m *matrix.CSR) int {
	nt := max(1, min(e.model.Threads(), runtime.GOMAXPROCS(0)))
	if cap := m.NNZ()/65536 + 1; nt > cap {
		nt = cap
	}
	if nt > m.NRows && m.NRows > 0 {
		nt = m.NRows
	}
	return nt
}

// maxFormatCacheEntries bounds each conversion kind of the memo the
// same way maxPreparedKernels bounds the kernel cache: a stream of
// distinct matrices must not retain converted structures — which can
// exceed the source matrix in size — without bound. Evicted
// conversions stay usable by whoever holds them.
const maxFormatCacheEntries = maxPreparedKernels

// putBounded inserts v into cache, first evicting an arbitrary entry
// (map order is effectively random) when the cache holds limit.
func putBounded[K comparable, V any](cache map[K]V, key K, v V, limit int) {
	if len(cache) >= limit {
		for k := range cache {
			delete(cache, k)
			break
		}
	}
	cache[key] = v
}

// memoized returns the executor's conversion of m into format f at
// precision prec, running convert on first use. Every caller of one
// kind converts to the same type T. Each kind holds up to
// maxFormatCacheEntries matrices on its own, so one kind's traffic
// never evicts another's conversions.
func memoized[T any](e *Executor, m *matrix.CSR, f ex.Format, prec ex.Precision, convert func(*matrix.CSR) T) T {
	e.mu.Lock()
	defer e.mu.Unlock()
	ck := conversionKind{f, prec}
	kind := e.conversions[ck]
	if v, ok := kind[m]; ok {
		return v.(T)
	}
	if kind == nil {
		kind = make(map[*matrix.CSR]any)
		e.conversions[ck] = kind
	}
	v := convert(m)
	putBounded(kind, m, any(v), maxFormatCacheEntries)
	return v
}

// SSSOf returns the executor's memoized symmetric-storage conversion
// of m (converting on first use) — the exact structure SSS-prepared
// kernels execute, so diagnostics like the sym experiment can read the
// compressed footprint without converting a second time. m must be
// symmetric (ConvertSSS verifies).
func (e *Executor) SSSOf(m *matrix.CSR) *formats.SSS {
	return memoized(e, m, ex.FormatSSS, ex.PrecF64, formats.ConvertSSS)
}

// SellCSOf returns the executor's memoized SELL-C-σ conversion of m at
// the default C/σ (converting on first use) — the exact structure
// SellCS-prepared kernels execute, so diagnostics like the sellcs
// experiment can read padding geometry without converting a second
// time.
func (e *Executor) SellCSOf(m *matrix.CSR) *formats.SellCS {
	return memoized(e, m, ex.FormatSellCS, ex.PrecF64, formats.ConvertSellCSAuto)
}

// Run implements exec.Executor: it executes the configuration, or the
// bound probe cfg.Probe selects over the baseline CSR, and reports the
// best-of-Iters wall time from stats.SecondsPerCall (warm cache: one
// untimed warmup pass precedes measurement) together with per-thread
// busy times averaged over the timed passes. The measured kernel runs
// on the executor's worker pool, the shape every served multiply runs
// in, so a measurement and a served call of one kernel time the same
// dispatch. Under concurrent serving a measured call can wait on the
// pool lock behind another kernel's dispatch rather than share CPUs
// with it.
func (e *Executor) Run(cfg ex.Config) ex.Result {
	m := cfg.Matrix
	nt := cfg.Threads
	if nt <= 0 {
		nt = e.defaultThreads(m)
	}
	if nt > m.NRows && m.NRows > 0 {
		nt = m.NRows
	}

	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1.0 + float64(i%5)*0.25
	}
	y := make([]float64, m.NRows)

	p := e.buildPrepared(m, cfg.Opt, nt, cfg.Probe) // transient: measurement widths vary

	// SecondsPerCall's first call is its untimed warm-up, which stamps
	// no per-thread times: the busy times average the timed calls only.
	perThread := make([]float64, nt)
	avg := make([]float64, nt)
	calls := 0
	secs := stats.SecondsPerCall(e.Iters, 1, func() {
		calls++
		if calls == 1 {
			p.mulVecTimed(x, y, nil)
			return
		}
		clear(perThread)
		p.mulVecTimed(x, y, perThread)
		for t, s := range perThread {
			avg[t] += s
		}
	})
	for t := range avg {
		avg[t] /= float64(calls - 1)
	}
	best := ex.Result{Seconds: secs, ThreadSeconds: avg}
	best.Gflops = ex.GflopsOf(m, best.Seconds)
	best.MemBytes = float64(p.matrixBytes) + float64(m.NCols+m.NRows)*8
	return best
}

// Prepare implements exec.PreparedExecutor: it compiles the
// configuration into a persistent kernel bound to the executor's worker
// pool, memoized per (matrix, optimization) pair.
func (e *Executor) Prepare(m *matrix.CSR, o ex.Optim) ex.PreparedKernel {
	return e.preparedFor(m, o)
}

// PreparePlan compiles a Plan IR artifact — typically loaded from a
// plan store or shipped in from another host — into a persistent
// kernel, after verifying the plan may execute m at all: schema
// version, fingerprint binding, and symmetry capability. This is the
// plan-consuming twin of Prepare: where Prepare trusts the caller's
// raw knob set, PreparePlan treats the plan as untrusted input, so a
// stale or foreign artifact fails loudly instead of selecting a
// kernel that computes garbage.
func (e *Executor) PreparePlan(m *matrix.CSR, p plan.Plan) (ex.PreparedKernel, error) {
	if err := p.ValidateFor(m); err != nil {
		return nil, err
	}
	return e.Prepare(m, p.Opt), nil
}

// maxPreparedKernels bounds the executor's kernel cache so a stream of
// distinct matrices through Prepare cannot retain memory without bound;
// long-lived serving paths hold their own Prepared references and are
// unaffected by eviction.
const maxPreparedKernels = 256

// preparedFor memoizes compiled kernels at the executor's default
// thread count, keyed by the canonical configuration: knob sets that
// bind the same kernel share one Prepared.
func (e *Executor) preparedFor(m *matrix.CSR, o ex.Optim) *Prepared {
	nt := e.defaultThreads(m)
	key := preparedKey{m: m, o: o.Canonical(e.model)}
	e.mu.Lock()
	p, ok := e.prepared[key]
	e.mu.Unlock()
	if ok && p.nt == nt {
		return p
	}
	// Compile outside the lock: format conversion can be expensive and
	// the conversion memo takes e.mu itself.
	p = e.buildPrepared(m, o, nt, 0)
	e.mu.Lock()
	putBounded(e.prepared, key, p, maxPreparedKernels) // an evicted kernel still works for its holders
	e.mu.Unlock()
	return p
}

// minMeasurableSecs is the floor below which a triad timing is noise:
// coarse platform clocks can report 0 elapsed seconds for a fast run,
// and dividing by that yields +Inf GB/s, which then poisons any model
// that trusts "gbs > 0". Runs faster than the floor return 0
// ("unmeasurable") instead of a garbage rate.
const minMeasurableSecs = 100e-9

// StreamTriad measures sustainable memory bandwidth with the classic
// a[i] = b[i] + s*c[i] kernel over nt goroutines, returning GB/s. It
// is the paper's B_max measurement (Table III's STREAM row) for the
// host platform. A run too fast for the clock to resolve returns 0;
// the result is always finite.
func StreamTriad(elems int, nt int, iters int) float64 {
	if elems < 1<<16 {
		elems = 1 << 16
	}
	if nt < 1 {
		nt = 1
	}
	if iters < 1 {
		iters = 3
	}
	a := make([]float64, elems)
	b := make([]float64, elems)
	c := make([]float64, elems)
	for i := range b {
		b[i] = float64(i)
		c[i] = 2
	}
	const s = 3.0
	triad := func() {
		var wg sync.WaitGroup
		for t := 0; t < nt; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				lo, hi := t*elems/nt, (t+1)*elems/nt
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + s*cc[i]
				}
			}(t)
		}
		wg.Wait()
	}
	bestSecs := stats.SecondsPerCall(iters, 1, triad)
	bytes := float64(elems) * 8 * 3 // two reads + one write
	return safeRate(bytes, bestSecs)
}

// safeRate converts units moved in secs to giga-units/second,
// returning 0 — "unmeasurable" — instead of +Inf/NaN when the timing
// is below the clock floor or otherwise degenerate. This is the
// regression guard for the bestSecs == 0 division.
func safeRate(units, secs float64) float64 {
	if secs < minMeasurableSecs {
		return 0
	}
	rate := units / secs / 1e9
	if math.IsInf(rate, 0) || math.IsNaN(rate) {
		return 0
	}
	return rate
}

// scalarSink defeats dead-code elimination of the ScalarRate chain.
var scalarSink float64

// ScalarRate measures the single-thread scalar multiply-add rate in
// Gflops. Two independent accumulator chains hide part of the FMA
// latency: a single dependent chain would measure latency, not a
// sustainable rate, while deep ILP would measure a throughput SpMV's
// dependent per-row accumulations never reach — two chains sit where
// the row-wise kernels actually operate. Like StreamTriad it returns
// 0 when the run is too fast to time.
func ScalarRate(iters int) float64 {
	if iters < 1<<16 {
		iters = 1 << 16
	}
	iters &^= 1 // multiple of the chain count
	x, y := 1.0000001, 0.9999999
	// Warmup plus timed run share the loop; only the timed one counts.
	run := func(n int) float64 {
		a0, a1 := 1.0, 1.01
		for i := 0; i < n; i += 2 {
			a0 = a0*x + y
			a1 = a1*x + y
		}
		return a0 + a1
	}
	scalarSink = run(iters / 4)
	start := time.Now()
	scalarSink += run(iters)
	secs := time.Since(start).Seconds()
	return safeRate(2*float64(iters), secs)
}

// HostProbes bundles the native measurement kernels in the shape
// internal/calib drives: this is the one place probe functions and
// the calibration machinery meet, and swapping it out (tests,
// facade) controls exactly how often the hardware is touched.
func HostProbes() calib.Probes {
	return calib.Probes{Triad: StreamTriad, Scalar: ScalarRate}
}

// CalibratedHost returns the host machine model with every ceiling
// replaced by a fresh measurement: the full calib.Measure suite —
// thread sweep, working-set sweep, scalar probe — applied to
// machine.Host(). Callers that want the measurement persisted should
// use calib.LoadOrMeasure with these probes instead.
func CalibratedHost() machine.Model {
	base := hostModel()
	return calib.Measure(HostProbes(), base).Apply(base)
}
