package native

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// checkMulVec verifies a native configuration computes real SpMV.
func checkMulVec(t *testing.T, m *matrix.CSR, o ex.Optim) {
	t.Helper()
	e := New()
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, m.NRows)
	m.MulVec(x, want)
	got := make([]float64, m.NRows)
	e.Prepare(m, o).MulVec(x, got)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("opt %v: y[%d] = %g, want %g", o, i, got[i], want[i])
		}
	}
}

func TestMulVecAllConfigurations(t *testing.T) {
	mats := map[string]*matrix.CSR{
		"uniform":  gen.UniformRandom(2000, 7, 1),
		"skewed":   gen.FewDenseRows(2000, 4, 2, 1500, 2),
		"banded":   gen.Banded(2000, 5, 0.8, 3),
		"powerlaw": gen.PowerLaw(2000, 6, 2.0, 800, 4),
	}
	opts := map[string]ex.Optim{
		"baseline":     {},
		"vec":          {Vectorize: true},
		"prefetch":     {Prefetch: true},
		"unroll":       {Unroll: true},
		"compress":     {Format: ex.FormatDelta},
		"split":        {Format: ex.FormatSplit},
		"vec+prefetch": {Vectorize: true, Prefetch: true},
		"dynamic":      {Schedule: sched.Dynamic},
		"guided":       {Schedule: sched.Guided},
		"auto":         {Schedule: sched.Auto},
		"static-rows":  {Schedule: sched.StaticRows},
		"everything":   {Vectorize: true, Prefetch: true, Format: ex.FormatDelta, Schedule: sched.Auto},
		"split+vec":    {Format: ex.FormatSplit, Vectorize: true},
	}
	for mn, m := range mats {
		for on, o := range opts {
			t.Run(mn+"/"+on, func(t *testing.T) {
				checkMulVec(t, m, o)
			})
		}
	}
}

func TestRunReturnsSaneResult(t *testing.T) {
	e := New()
	m := gen.UniformRandom(5000, 8, 5)
	r := e.Run(ex.Config{Matrix: m})
	if r.Seconds <= 0 || r.Gflops <= 0 {
		t.Fatalf("degenerate result %+v", r)
	}
	if len(r.ThreadSeconds) == 0 {
		t.Fatal("no per-thread times")
	}
	for _, ts := range r.ThreadSeconds {
		if ts < 0 {
			t.Fatal("negative thread time")
		}
	}
}

func TestRunThreadsOverride(t *testing.T) {
	e := New()
	m := gen.Banded(1000, 4, 1.0, 1)
	r := e.Run(ex.Config{Matrix: m, Threads: 2})
	if len(r.ThreadSeconds) != 2 {
		t.Fatalf("threads = %d, want 2", len(r.ThreadSeconds))
	}
}

func TestRunThreadsCappedByRows(t *testing.T) {
	e := New()
	m := gen.Banded(3, 1, 1.0, 1)
	r := e.Run(ex.Config{Matrix: m, Threads: 64})
	if len(r.ThreadSeconds) > 3 {
		t.Fatalf("threads = %d, want <= rows", len(r.ThreadSeconds))
	}
}

func TestBoundKernelsExecute(t *testing.T) {
	e := New()
	m := gen.UniformRandom(3000, 6, 7)
	for _, p := range []ex.Probe{ex.ProbeML, ex.ProbeCMP} {
		r := e.Run(ex.Config{Matrix: m, Probe: p})
		if r.Seconds <= 0 {
			t.Fatalf("bound probe %d did not run", p)
		}
	}
}

// TestRunOverlapsServedMulVec: a measured Run dispatches on the worker
// pool that serves prepared kernels, so a 2-slot Run on one matrix
// and 2-slot MulVec calls on another matrix of the same executor take
// turns on the pool lock. Under -race both must finish, and every
// served answer must match CSR.MulVec.
func TestRunOverlapsServedMulVec(t *testing.T) {
	mdl := machine.Host()
	mdl.Cores, mdl.ThreadsPerCore = 2, 1
	e := NewWithModel(mdl)
	defer e.Close()
	measured := gen.UniformRandom(3000, 6, 71)
	served := gen.FewDenseRows(2500, 5, 2, 1200, 72)
	// Two slots whatever GOMAXPROCS is, so every call takes the lock.
	p := e.buildPrepared(served, ex.Optim{Vectorize: true}, 2, 0)
	x := make([]float64, served.NCols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	want := make([]float64, served.NRows)
	served.MulVec(x, want)

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, probe := range []ex.Probe{0, ex.ProbeML, ex.ProbeCMP} {
			r := e.Run(ex.Config{Matrix: measured, Threads: 2, Opt: ex.Optim{Vectorize: true}, Probe: probe})
			if r.Seconds <= 0 || len(r.ThreadSeconds) != 2 {
				t.Errorf("probe %d: %g s over %d threads", probe, r.Seconds, len(r.ThreadSeconds))
			}
		}
	}()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, served.NRows)
			for {
				p.MulVec(x, y)
				for i := range want {
					if math.Abs(want[i]-y[i]) > 1e-12*(1+math.Abs(want[i])) {
						t.Errorf("served y[%d] = %g, want %g", i, y[i], want[i])
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
}

func TestFormatsMemoized(t *testing.T) {
	e := New()
	m := gen.Banded(500, 3, 1.0, 9)
	delta := func() *formats.DeltaCSR { return memoized(e, m, ex.FormatDelta, ex.PrecF64, formats.Compress) }
	if d1, d2 := delta(), delta(); d1 != d2 {
		t.Fatal("delta conversion not memoized")
	}
	if s1, s2 := e.SellCSOf(m), e.SellCSOf(m); s1 != s2 {
		t.Fatal("SELL-C-σ conversion not memoized")
	}
}

func TestStreamTriad(t *testing.T) {
	gbs := StreamTriad(1<<20, 2, 2)
	if gbs <= 0 {
		t.Fatalf("stream triad = %g GB/s", gbs)
	}
	// Any machine this runs on moves more than 0.05 GB/s and less
	// than 10 TB/s.
	if gbs < 0.05 || gbs > 10000 {
		t.Fatalf("stream triad implausible: %g GB/s", gbs)
	}
}

func TestStreamTriadDefensiveArgs(t *testing.T) {
	if gbs := StreamTriad(0, 0, 0); gbs <= 0 {
		t.Fatal("defensive argument handling broken")
	}
}

func TestCalibratedHost(t *testing.T) {
	mdl := CalibratedHost()
	if mdl.StreamMainGBs <= 0 || mdl.StreamLLCGBs < mdl.StreamMainGBs {
		t.Fatalf("calibration wrong: %g/%g", mdl.StreamMainGBs, mdl.StreamLLCGBs)
	}
}

func TestSafeRateRejectsDegenerateTimings(t *testing.T) {
	// Regression: a coarse clock can report 0 elapsed seconds, and the
	// old StreamTriad divided by it, returning +Inf GB/s which
	// CalibratedHost's "gbs > 0" happily accepted into the model.
	if got := safeRate(1e9, 0); got != 0 {
		t.Fatalf("zero-second timing must be unmeasurable, got %g", got)
	}
	if got := safeRate(1e9, minMeasurableSecs/2); got != 0 {
		t.Fatalf("sub-floor timing must be unmeasurable, got %g", got)
	}
	if got := safeRate(math.Inf(1), 1); got != 0 {
		t.Fatalf("non-finite rate must be rejected, got %g", got)
	}
	if got := safeRate(24e9, 1); got != 24 {
		t.Fatalf("sane timing mispriced: got %g, want 24", got)
	}
	if got := StreamTriad(1<<16, 1, 1); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("StreamTriad returned non-finite %g", got)
	}
}

func TestScalarRate(t *testing.T) {
	gf := ScalarRate(1 << 20)
	if math.IsInf(gf, 0) || math.IsNaN(gf) || gf < 0 {
		t.Fatalf("scalar rate = %g", gf)
	}
	// A measurable run on any real machine lands between 1 Mflops and
	// 1 Tflops for a serial dependent chain.
	if gf != 0 && (gf < 0.001 || gf > 1000) {
		t.Fatalf("scalar rate implausible: %g Gflops", gf)
	}
}

func TestHostProbesWired(t *testing.T) {
	p := HostProbes()
	if p.Triad == nil || p.Scalar == nil {
		t.Fatal("host probes must bundle both kernels")
	}
	if gbs := p.Triad(1<<18, 1, 1); math.IsInf(gbs, 0) || math.IsNaN(gbs) {
		t.Fatalf("probe triad non-finite: %g", gbs)
	}
}

func TestNewWithModelSpansHardwareThreads(t *testing.T) {
	// The pool must follow Threads(), not Cores: the SMT topology fix
	// halves Cores on hyperthreaded hosts and the executor must not
	// lose parallel width because of it.
	m := machine.Host()
	m.Cores, m.ThreadsPerCore = 2, 2
	e := NewWithModel(m)
	defer e.Close()
	if e.workers.Size() != 4 {
		t.Fatalf("pool size = %d, want 4 hardware threads", e.workers.Size())
	}
	if e.Machine().Cores != 2 {
		t.Fatalf("model not preserved: %+v", e.Machine())
	}
}

// TestKernelWidthFollowsGOMAXPROCS pins the width rule: a matrix too
// large for the nnz cap to bind is prepared at min(model.Threads(),
// GOMAXPROCS) by every fresh executor, with no measurement deciding it.
func TestKernelWidthFollowsGOMAXPROCS(t *testing.T) {
	mdl := machine.Host()
	mdl.Cores, mdl.ThreadsPerCore = 2, 2
	m := gen.UniformRandom(40000, 8, 1) // nnz well above 4*65536
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		runtime.GOMAXPROCS(procs)
		want := min(mdl.Threads(), procs)
		for i := 0; i < 20; i++ {
			e := NewWithModel(mdl)
			got := e.Prepare(m, ex.Optim{}).Threads()
			e.Close()
			if got != want {
				t.Fatalf("GOMAXPROCS %d, executor %d: width %d, want %d", procs, i, got, want)
			}
		}
	}
}

// TestAutoSingleThreadRunsStatic: a vec@auto kernel prepared at
// GOMAXPROCS=1 on a long-row matrix binds the static partition, so its
// one slot never touches the chunk cursor; bound at two slots the same
// configuration drains the cursor (sched.Resolve picks Dynamic).
func TestAutoSingleThreadRunsStatic(t *testing.T) {
	m := gen.FewDenseRows(2000, 3, 3, 1800, 1)
	if u := sched.Unevenness(m); u <= 2 {
		t.Fatalf("unevenness %g, want a long-row matrix above 2", u)
	}
	o := ex.Optim{Vectorize: true, Schedule: sched.Auto}
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, m.NRows)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := New()
	defer e.Close()
	p := e.Prepare(m, o).(*Prepared)
	p.MulVec(x, y)
	if p.Threads() != 1 || p.next.Load() != 0 {
		t.Fatalf("GOMAXPROCS=1: %d threads, cursor at %d; want 1 thread and no chunk queue", p.Threads(), p.next.Load())
	}
	p2 := e.buildPrepared(m, o, 2, 0)
	p2.MulVec(x, y)
	if p2.next.Load() == 0 {
		t.Fatal("two slots on a long-row matrix did not drain the chunk cursor")
	}
}

// TestFirstPrepareAllocatesLittle guards against any probe returning
// to the first Prepare: a bandwidth race there allocated 96 MiB of
// triad arrays before the kernel was built.
func TestFirstPrepareAllocatesLittle(t *testing.T) {
	m := gen.UniformRandom(1000, 8, 1)
	e := New()
	defer e.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Prepare(m, ex.Optim{})
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("first Prepare allocated %d bytes, want < 1 MiB", d)
	}
}
