package sim

import (
	"math"
	"reflect"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
	"github.com/sparsekit/spmvtuner/internal/stats"
)

func run(e *Executor, m *matrix.CSR, o ex.Optim) ex.Result {
	return e.Run(ex.Config{Matrix: m, Opt: o})
}

// probe prices one bound micro-benchmark of m.
func probe(e *Executor, m *matrix.CSR, p ex.Probe) ex.Result {
	return e.Run(ex.Config{Matrix: m, Probe: p})
}

func TestBaselineProducesPositiveTimes(t *testing.T) {
	e := New(machine.KNC())
	m := gen.UniformRandom(20000, 10, 1)
	r := run(e, m, ex.Optim{})
	if r.Seconds <= 0 || r.Gflops <= 0 || r.MemBytes <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if len(r.ThreadSeconds) != machine.KNC().Threads() {
		t.Fatalf("thread times = %d, want %d", len(r.ThreadSeconds), machine.KNC().Threads())
	}
}

func TestGflopsConsistent(t *testing.T) {
	e := New(machine.KNL())
	m := gen.Banded(30000, 8, 0.9, 2)
	r := run(e, m, ex.Optim{})
	want := m.Flops() / r.Seconds / 1e9
	if math.Abs(r.Gflops-want) > 1e-9*want {
		t.Fatalf("gflops %g inconsistent with seconds (want %g)", r.Gflops, want)
	}
}

func TestDeterministicAndMemoized(t *testing.T) {
	e := New(machine.KNC())
	m := gen.PowerLaw(20000, 8, 2.0, 4000, 3)
	a := run(e, m, ex.Optim{Vectorize: true})
	b := run(e, m, ex.Optim{Vectorize: true})
	if a.Seconds != b.Seconds || a.MemBytes != b.MemBytes {
		t.Fatal("same config produced different results")
	}
}

// Fig 1 behaviour: software prefetching helps latency-bound matrices
// and *hurts* regular ones. The matrices must exceed the 30 MiB KNC
// LLC for the main-memory latency regime to apply.
func TestPrefetchHelpsIrregularHurtsRegular(t *testing.T) {
	e := New(machine.KNC())
	irr := gen.UniformRandom(400000, 9, 1) // scattered columns, high miss rate
	reg := gen.Banded(400000, 5, 1.0, 1)   // near-perfect locality

	base := run(e, irr, ex.Optim{}).Seconds
	pref := run(e, irr, ex.Optim{Prefetch: true}).Seconds
	if pref >= base {
		t.Fatalf("prefetch on irregular: %.3gs -> %.3gs, want speedup", base, pref)
	}

	baseR := run(e, reg, ex.Optim{}).Seconds
	prefR := run(e, reg, ex.Optim{Prefetch: true}).Seconds
	if prefR <= baseR {
		t.Fatalf("prefetch on regular: %.3gs -> %.3gs, want slowdown", baseR, prefR)
	}
}

// Fig 1 behaviour: vectorization helps compute-heavy matrices (dense
// rows) far more than latency-bound ones.
func TestVectorizationHelpsComputeBound(t *testing.T) {
	e := New(machine.KNC())
	dense := gen.FewDenseRows(20000, 6, 4, 15000, 2)
	irr := gen.UniformRandom(40000, 10, 2)

	sDense := run(e, dense, ex.Optim{}).Seconds / run(e, dense, ex.Optim{Vectorize: true}).Seconds
	sIrr := run(e, irr, ex.Optim{}).Seconds / run(e, irr, ex.Optim{Vectorize: true}).Seconds
	if sDense <= 1.2 {
		t.Fatalf("vectorization speedup on dense rows = %.2f, want > 1.2", sDense)
	}
	if sDense <= sIrr {
		t.Fatalf("vectorization should help dense rows (%.2f) more than random (%.2f)", sDense, sIrr)
	}
}

func TestImbalanceVisibleInThreadTimes(t *testing.T) {
	e := New(machine.KNC())
	m := gen.FewDenseRows(30000, 5, 2, 25000, 3)
	r := run(e, m, ex.Optim{})
	med := stats.Median(r.ThreadSeconds)
	max := stats.Max(r.ThreadSeconds)
	if max < 2*med {
		t.Fatalf("dense-row matrix should show imbalance: max %.3g vs median %.3g", max, med)
	}
	// P_IMB > P_CSR equivalently median << max.
	bal := gen.UniformRandom(30000, 8, 3)
	rb := run(e, bal, ex.Optim{})
	if stats.Max(rb.ThreadSeconds) > 1.5*stats.Median(rb.ThreadSeconds) {
		t.Fatal("uniform matrix should be balanced under static-nnz")
	}
}

func TestSplitFixesDenseRowImbalance(t *testing.T) {
	e := New(machine.KNC())
	m := gen.FewDenseRows(30000, 5, 2, 25000, 3)
	base := run(e, m, ex.Optim{})
	split := run(e, m, ex.Optim{Format: ex.FormatSplit})
	if split.Seconds >= base.Seconds {
		t.Fatalf("split did not help dense-row matrix: %.3g -> %.3g", base.Seconds, split.Seconds)
	}
	// And the thread profile must flatten.
	if stats.Max(split.ThreadSeconds) > 1.5*stats.Median(split.ThreadSeconds) {
		t.Fatal("split run still imbalanced")
	}
}

func TestSplitThreshold(t *testing.T) {
	if th := SplitThreshold(gen.Banded(1000, 4, 1.0, 1)); th != 256 {
		t.Fatalf("short-row threshold = %d, want the floor 256", th)
	}
	md := gen.FewDenseRows(5000, 4, 3, 4000, 2)
	if th := SplitThreshold(md); th >= 4000 {
		t.Fatalf("threshold %d would miss the 4000-long dense rows", th)
	}
	// 16x the average row length once that clears the floor.
	wide := gen.Dense(64, 3)
	if th := SplitThreshold(wide); th != 16*64 {
		t.Fatalf("dense 64-column threshold = %d, want %d", th, 16*64)
	}
}

// checkLongRowStats pins the decomposition statistics the model prices
// Split from: exactly the rows above the threshold move to the long
// part, every element lands in exactly one part, and no base row stays
// above the threshold.
func checkLongRowStats(t *testing.T, m *matrix.CSR, long int) {
	t.Helper()
	p := New(machine.KNC()).profileOf(m)
	if p.nLong != long {
		t.Fatalf("long rows = %d, want %d", p.nLong, long)
	}
	n := m.NRows
	if p.longNNZ+p.pNNZBase[n] != int64(m.NNZ()) {
		t.Fatalf("long %d + base %d elements != nnz %d", p.longNNZ, p.pNNZBase[n], m.NNZ())
	}
	for i := 0; i < n; i++ {
		if base := p.pNNZBase[i+1] - p.pNNZBase[i]; base > int64(p.splitThreshold) {
			t.Fatalf("base row %d still long: %d", i, base)
		}
	}
}

func TestProfileExtractsLongRows(t *testing.T) {
	checkLongRowStats(t, gen.FewDenseRows(2000, 5, 3, 1200, 7), 3)
}

// TestProfileNoLongRows: a matrix without long rows keeps its whole
// stream in the base part.
func TestProfileNoLongRows(t *testing.T) {
	m := gen.Banded(400, 3, 0.9, 2)
	checkLongRowStats(t, m, 0)
	if p := New(machine.KNC()).profileOf(m); p.longNNZ != 0 {
		t.Fatalf("long elements = %d, want 0", p.longNNZ)
	}
}

func TestDynamicScheduleFixesUnevenness(t *testing.T) {
	e := New(machine.KNC())
	// Computational unevenness: half the matrix is banded (cheap),
	// half random (miss-heavy). Static-nnz gives equal nnz but the
	// random half's threads stall on misses.
	n := 40000
	coo := matrix.NewCOO(n, n)
	b := gen.Banded(n/2, 10, 1.0, 1)
	for i := 0; i < b.NRows; i++ {
		for j := b.RowPtr[i]; j < b.RowPtr[i+1]; j++ {
			coo.Add(i, int(b.ColInd[j]), b.Val[j])
		}
	}
	u := gen.UniformRandom(n/2, 21, 1)
	for i := 0; i < u.NRows; i++ {
		for j := u.RowPtr[i]; j < u.RowPtr[i+1]; j++ {
			coo.Add(n/2+i, int(u.ColInd[j])*2%n, u.Val[j])
		}
	}
	m := coo.ToCSR()
	static := run(e, m, ex.Optim{Schedule: sched.StaticNNZ})
	dyn := run(e, m, ex.Optim{Schedule: sched.Dynamic})
	if dyn.Seconds >= static.Seconds {
		t.Fatalf("dynamic schedule %.3g !< static %.3g on uneven matrix", dyn.Seconds, static.Seconds)
	}
}

func TestCompressReducesTrafficAndHelpsMB(t *testing.T) {
	e := New(machine.KNC())
	// Large banded matrix: bandwidth bound, perfect locality.
	m := gen.Banded(200000, 16, 1.0, 1)
	base := run(e, m, ex.Optim{Vectorize: true})
	comp := run(e, m, ex.Optim{Vectorize: true, Format: ex.FormatDelta})
	if comp.MemBytes >= base.MemBytes {
		t.Fatalf("compression did not reduce traffic: %.3g -> %.3g", base.MemBytes, comp.MemBytes)
	}
	if comp.Seconds >= base.Seconds {
		t.Fatalf("compression did not help bandwidth-bound matrix: %.3g -> %.3g", base.Seconds, comp.Seconds)
	}
}

func TestBoundKernels(t *testing.T) {
	e := New(machine.KNC())
	m := gen.UniformRandom(60000, 12, 5)
	base := run(e, m, ex.Optim{}).Seconds
	ml := probe(e, m, ex.ProbeML).Seconds
	cmp := probe(e, m, ex.ProbeCMP).Seconds
	if ml >= base {
		t.Fatalf("P_ML kernel should beat baseline on irregular matrix: %.3g vs %.3g", ml, base)
	}
	if cmp > ml {
		t.Fatalf("P_CMP (unit stride) %.3g should be <= P_ML %.3g", cmp, ml)
	}
	// A probe measures the baseline CSR whatever the knobs say.
	for _, p := range []ex.Probe{ex.ProbeML, ex.ProbeCMP} {
		knobs := ex.Optim{Vectorize: true, Format: ex.FormatDelta, Schedule: sched.Dynamic}
		if got, want := e.Run(ex.Config{Matrix: m, Opt: knobs, Probe: p}).Seconds, probe(e, m, p).Seconds; got != want {
			t.Fatalf("probe %d priced the knobs: %.3g s, want %.3g", p, got, want)
		}
	}

	// On a regular matrix the ML kernel changes little.
	reg := gen.Banded(60000, 12, 1.0, 5)
	baseR := run(e, reg, ex.Optim{}).Seconds
	mlR := probe(e, reg, ex.ProbeML).Seconds
	if ratio := baseR / mlR; ratio > 1.6 {
		t.Fatalf("P_ML gain on regular matrix = %.2f, should be small", ratio)
	}
}

func TestLLCResidencySpeedsUp(t *testing.T) {
	e := New(machine.Broadwell())
	small := gen.Banded(20000, 8, 1.0, 1)  // ~ a few MB: fits 55 MiB L3
	large := gen.Banded(800000, 8, 1.0, 1) // far beyond L3
	rs := run(e, small, ex.Optim{})
	rl := run(e, large, ex.Optim{})
	perNNZSmall := rs.Seconds / float64(small.NNZ())
	perNNZLarge := rl.Seconds / float64(large.NNZ())
	if perNNZSmall >= perNNZLarge {
		t.Fatalf("LLC-resident per-nnz time %.3g !< memory-resident %.3g", perNNZSmall, perNNZLarge)
	}
}

func TestPlatformLatencyDiversity(t *testing.T) {
	// The same irregular matrix should be far more latency-limited on
	// KNC than on Broadwell (Section IV-C: expensive Phi cache misses).
	m := gen.UniformRandom(60000, 12, 9)
	gainKNC := func() float64 {
		e := New(machine.KNC())
		return run(e, m, ex.Optim{}).Seconds / probe(e, m, ex.ProbeML).Seconds
	}()
	gainBDW := func() float64 {
		e := New(machine.Broadwell())
		return run(e, m, ex.Optim{}).Seconds / probe(e, m, ex.ProbeML).Seconds
	}()
	if gainKNC <= gainBDW {
		t.Fatalf("P_ML/P_CSR gain: KNC %.2f should exceed Broadwell %.2f", gainKNC, gainBDW)
	}
}

func TestThreadsOverride(t *testing.T) {
	e := New(machine.KNC())
	m := gen.UniformRandom(20000, 8, 4)
	r1 := e.Run(ex.Config{Matrix: m, Threads: 1, Opt: ex.Optim{}})
	rAll := e.Run(ex.Config{Matrix: m, Opt: ex.Optim{}})
	if len(r1.ThreadSeconds) != 1 {
		t.Fatalf("threads override ignored: %d", len(r1.ThreadSeconds))
	}
	if r1.Seconds <= rAll.Seconds {
		t.Fatal("single-threaded run should be slower than full chip")
	}
}

func TestBreakdownBindingNames(t *testing.T) {
	e := New(machine.KNC())
	irr := run(e, gen.UniformRandom(400000, 9, 2), ex.Optim{})
	if got := irr.Breakdown.Binding(); got != "latency" {
		t.Fatalf("irregular binding = %s, want latency", got)
	}
	// Vectorized large banded: compute collapses, the chip saturates
	// its STREAM bandwidth.
	mb := run(e, gen.Banded(400000, 16, 1.0, 2), ex.Optim{Vectorize: true})
	if got := mb.Breakdown.Binding(); got != "bandwidth" {
		t.Fatalf("large banded binding = %s, want bandwidth", got)
	}
	// Scalar on KNC is stall-dominated: compute binds.
	sc := run(e, gen.Banded(400000, 16, 1.0, 2), ex.Optim{})
	if got := sc.Breakdown.Binding(); got != "compute" {
		t.Fatalf("scalar banded binding = %s, want compute (in-order stalls)", got)
	}
}

func TestUnrollReducesComputeCost(t *testing.T) {
	e := New(machine.KNC())
	m := gen.ShortRows(400000, 3, 7) // tiny rows: loop overhead dominates
	base := run(e, m, ex.Optim{})
	unrolled := run(e, m, ex.Optim{Unroll: true})
	if unrolled.Breakdown.ComputeSeconds >= base.Breakdown.ComputeSeconds {
		t.Fatalf("unroll compute term: %.3g -> %.3g, want reduction",
			base.Breakdown.ComputeSeconds, unrolled.Breakdown.ComputeSeconds)
	}
	if unrolled.Seconds > base.Seconds {
		t.Fatalf("unroll slowed the run: %.3g -> %.3g", base.Seconds, unrolled.Seconds)
	}
}

// Fig 1 behaviour: vectorization *hurts* matrices of ultra-short rows
// (mask/remainder setup swamps the 1-2 useful lanes).
func TestVectorizationHurtsUltraShortRows(t *testing.T) {
	e := New(machine.KNC())
	m := gen.Diagonal(400000, 7) // one element per row
	base := run(e, m, ex.Optim{}).Seconds
	vec := run(e, m, ex.Optim{Vectorize: true}).Seconds
	if vec <= base {
		t.Fatalf("vectorizing 1-nnz rows: %.3g -> %.3g, want slowdown", base, vec)
	}
}

func TestCostsAblation(t *testing.T) {
	m := gen.UniformRandom(30000, 10, 3)
	cheap := DefaultCosts()
	cheap.PrefetchIssueCycles = 0
	e1 := NewWithCosts(machine.KNC(), cheap)
	e2 := New(machine.KNC())
	r1 := run(e1, m, ex.Optim{Prefetch: true})
	r2 := run(e2, m, ex.Optim{Prefetch: true})
	if r1.Seconds > r2.Seconds {
		t.Fatal("removing prefetch issue cost should never slow the model")
	}
}

func TestUniqueXLinesExposed(t *testing.T) {
	e := New(machine.KNC())
	m := gen.Banded(10000, 4, 1.0, 1)
	u := e.UniqueXLines(m)
	if u <= 0 || u > int64(m.NCols) {
		t.Fatalf("unique x lines = %d out of range", u)
	}
}

func TestSellCSHelpsShortRowImbalance(t *testing.T) {
	e := New(machine.KNC())
	// Very short irregular rows: the row-wise vector kernel pays its
	// mask/remainder setup on every 1-4 element row; SELL-C-σ pays it
	// once per 8-row chunk and its sorted chunks equalize threads.
	m := gen.ShortRows(300000, 4, 1)
	vec := run(e, m, ex.Optim{Vectorize: true})
	sell := run(e, m, ex.Optim{Format: ex.FormatSellCS, Vectorize: true})
	if sell.Seconds >= vec.Seconds {
		t.Fatalf("SELL-C-σ (%.3g s) did not beat the row-wise vector kernel (%.3g s) on short rows",
			sell.Seconds, vec.Seconds)
	}
	if sell.Gflops <= 0 || sell.MemBytes <= 0 {
		t.Fatalf("degenerate SELL result: %+v", sell)
	}
}

func TestSellCSEvensOutThreadTimes(t *testing.T) {
	e := New(machine.KNC())
	// Power-law row lengths under the static row partition show thread
	// imbalance; the sorted SELL chunks model an even assignment.
	m := gen.PowerLaw(200000, 8, 1.8, 4000, 3)
	base := run(e, m, ex.Optim{Schedule: sched.StaticRows})
	sell := run(e, m, ex.Optim{Format: ex.FormatSellCS, Vectorize: true})
	spread := func(ts []float64) float64 {
		if len(ts) == 0 {
			return 0
		}
		max, med := 0.0, stats.Median(append([]float64(nil), ts...))
		for _, v := range ts {
			if v > max {
				max = v
			}
		}
		if med == 0 {
			return 0
		}
		return max / med
	}
	if spread(sell.ThreadSeconds) > spread(base.ThreadSeconds) {
		t.Fatalf("SELL thread spread %.3f above static-rows baseline %.3f",
			spread(sell.ThreadSeconds), spread(base.ThreadSeconds))
	}
}

func TestSellCSSupersededKnobsInert(t *testing.T) {
	// The native SELL kernel has no prefetch or unroll variants; the
	// model must agree, or the oracle would rank identical runtime
	// configurations differently.
	e := New(machine.KNC())
	m := gen.ShortRows(50000, 3, 5)
	sell := run(e, m, ex.Optim{Format: ex.FormatSellCS, Vectorize: true})
	for _, o := range []ex.Optim{
		{Format: ex.FormatSellCS, Vectorize: true, Prefetch: true},
		{Format: ex.FormatSellCS, Vectorize: true, Unroll: true},
	} {
		if got := run(e, m, o); got.Seconds != sell.Seconds {
			t.Fatalf("%v must model identically to plain SELL: %g vs %g",
				o, got.Seconds, sell.Seconds)
		}
	}
}

func TestSellCSDynamicSchedulePaysDequeues(t *testing.T) {
	e := New(machine.KNC())
	// Few threads on a cache-resident matrix: the worst-thread time —
	// not the chip bandwidth floor — decides, so the per-chunk dequeue
	// cost of the cursor-driven SELL path is visible.
	m := gen.ShortRows(20000, 3, 9)
	static := e.Run(ex.Config{Matrix: m, Threads: 2, Opt: ex.Optim{Format: ex.FormatSellCS, Vectorize: true}})
	dynamic := e.Run(ex.Config{Matrix: m, Threads: 2,
		Opt: ex.Optim{Format: ex.FormatSellCS, Vectorize: true, Schedule: sched.Dynamic}})
	if dynamic.Seconds <= static.Seconds {
		t.Fatalf("cursor-driven SELL must pay dequeue cost: dynamic %.6g <= static %.6g",
			dynamic.Seconds, static.Seconds)
	}
}

// TestHostPricesCanonicalForm checks that the host model prices every
// knob set exactly as its canonical form, bit for bit, so knob sets
// that bind one kernel get one price, while KNC still prices the
// paper's prefetch kernel apart from the vector one.
func TestHostPricesCanonicalForm(t *testing.T) {
	host := machine.Host()
	e := New(host)
	irr := gen.UniformRandom(20000, 9, 1)
	sym := gen.Poisson2D(120, 120)
	sym.Sym = matrix.SymSymmetric
	for _, o := range []ex.Optim{
		{Prefetch: true},
		{Unroll: true, Schedule: sched.StaticRows},
		{Vectorize: true, Prefetch: true, Unroll: true},
		{Format: ex.FormatSplit},
		{Format: ex.FormatSplit, Prefetch: true, Schedule: sched.Dynamic},
		{Format: ex.FormatSplit, Schedule: sched.StaticRows},
		{Format: ex.FormatDelta, Vectorize: true, Schedule: sched.Guided},
		{Format: ex.FormatDelta}, // priced as the vector decoder it runs
		{Format: ex.FormatSellCS, Vectorize: true, Unroll: true},
		{Format: ex.FormatSSS, Vectorize: true, Schedule: sched.Auto},
		{Precision: ex.PrecF32, Format: ex.FormatDelta, Prefetch: true},
	} {
		for _, m := range []*matrix.CSR{irr, sym} {
			got, want := run(e, m, o), run(e, m, o.Canonical(host))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: host prices %v at %+v, its canonical form %v at %+v",
					m.Name, o, got, o.Canonical(host), want)
			}
		}
	}
	knc := New(machine.KNC())
	vec := run(knc, irr, ex.Optim{Vectorize: true})
	if pf := run(knc, irr, ex.Optim{Vectorize: true, Prefetch: true}); reflect.DeepEqual(pf, vec) {
		t.Fatalf("KNC prices vec+prefetch as vec: %+v", vec)
	}
}
