package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sparsekit/spmvtuner/internal/core"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/planstore"
)

// countingNative embeds the concrete native executor (so the engine's
// ex.Releaser assertion still sees the per-matrix release hook) and
// counts Run invocations. Every classification micro-benchmark and
// every candidate-sweep measurement goes through Run, so a flat
// counter across an eviction/re-preparation storm proves the storm
// never re-tuned.
type countingNative struct {
	*native.Executor
	runs atomic.Int64
}

func (c *countingNative) Run(cfg ex.Config) ex.Result {
	c.runs.Add(1)
	return c.Executor.Run(cfg)
}

func newCountingEngine(t testing.TB) (*PipelineEngine, *countingNative) {
	t.Helper()
	cn := &countingNative{Executor: native.New()}
	t.Cleanup(func() { cn.Close() })
	pipe := core.New(cn)
	pipe.Store = planstore.New(planstore.DefaultCapacity)
	return NewPipelineEngine(pipe), cn
}

// TestServeRaceSoak hammers one server from every direction at once:
// multiply traffic across four matrices under a budget small enough to
// force constant eviction, register/deregister churn on a fifth name,
// and concurrent Stats/Warm/Names pollers. Run under -race this is the
// serving layer's concurrency audit; every returned vector is still
// checked against the serial reference.
func TestServeRaceSoak(t *testing.T) {
	eng, _ := newNativeEngine(t)

	ms := []*matrix.CSR{
		gen.Banded(900, 4, 0.9, 1),
		gen.UniformRandom(800, 6, 2),
		gen.Unstructured3D(700, 8, 0.5, 3),
		gen.Banded(1000, 2, 1.0, 4),
	}
	var budget int64
	for _, m := range ms {
		budget += m.Bytes()
	}
	budget /= 2 // roughly two of four resident: steady eviction traffic

	srv := New(eng, Config{MemoryBudget: budget, QueueDepth: 64})
	defer srv.Close()
	for i, m := range ms {
		if err := srv.Register(fmt.Sprintf("m%d", i), m); err != nil {
			t.Fatal(err)
		}
	}

	iters := 40
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)

	// Multiply workers: random matrix, random vector, differential
	// check every single result.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for it := 0; it < iters; it++ {
				i := rng.Intn(len(ms))
				m := ms[i]
				x := make([]float64, m.NCols)
				for j := range x {
					x[j] = rng.Float64()*2 - 1
				}
				y := make([]float64, m.NRows)
				if err := srv.MulVec(fmt.Sprintf("m%d", i), x, y); err != nil {
					if errors.Is(err, ErrBusy) {
						continue // backpressure is a valid soak outcome
					}
					errc <- fmt.Errorf("worker %d m%d: %w", w, i, err)
					return
				}
				ref := make([]float64, m.NRows)
				m.MulVec(x, ref)
				for j := range ref {
					tol := diffRelTol * math.Max(1, math.Abs(ref[j]))
					if d := math.Abs(y[j] - ref[j]); d > tol {
						errc <- fmt.Errorf("worker %d m%d: y[%d] off by %g", w, i, j, d)
						return
					}
				}
			}
		}(w)
	}

	// Churn worker: a fifth matrix cycles register → traffic →
	// deregister; lookups racing the cycle may see ErrNotFound, never
	// a hang or a wrong answer.
	churn := gen.Banded(600, 3, 0.9, 5)
	wg.Add(1)
	go func() {
		defer wg.Done()
		x := make([]float64, churn.NCols)
		for j := range x {
			x[j] = float64(j%5) - 2
		}
		ref := make([]float64, churn.NRows)
		churn.MulVec(x, ref)
		y := make([]float64, churn.NRows)
		for it := 0; it < iters/2; it++ {
			if err := srv.Register("churn", churn); err != nil {
				errc <- fmt.Errorf("churn register: %w", err)
				return
			}
			if err := srv.MulVec("churn", x, y); err != nil {
				errc <- fmt.Errorf("churn mulvec: %w", err)
				return
			}
			for j := range ref {
				tol := diffRelTol * math.Max(1, math.Abs(ref[j]))
				if math.Abs(y[j]-ref[j]) > tol {
					errc <- fmt.Errorf("churn: y[%d] wrong", j)
					return
				}
			}
			if err := srv.Deregister("churn"); err != nil {
				errc <- fmt.Errorf("churn deregister: %w", err)
				return
			}
		}
	}()

	// Pollers: stats and warm calls racing everything above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < iters; it++ {
			for _, st := range srv.Stats() {
				if st.Requests < st.Batches {
					errc <- fmt.Errorf("stats %s: requests %d < batches %d", st.Name, st.Requests, st.Batches)
					return
				}
			}
			srv.Names()
			if err := srv.Warm("m0"); err != nil {
				errc <- fmt.Errorf("warm m0: %w", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The budget forced evictions, and every matrix tuned at most once
	// (re-preparations were plan-store warm starts).
	var evictions, warm uint64
	for _, st := range srv.Stats() {
		evictions += st.Evictions
		warm += st.WarmPrepares
		if st.Tunes > 1 {
			t.Errorf("%s tuned %d times; re-preparations must be warm", st.Name, st.Tunes)
		}
	}
	if evictions == 0 {
		t.Error("soak never evicted despite the halved budget")
	}
	if warm == 0 {
		t.Error("soak never warm-prepared despite evictions")
	}
}

// TestServerEvictionUnderLoadReprepFromPlan is the eviction storm with
// the measurement counter attached: a 1-byte budget means every
// preparation evicts every other resident kernel, four goroutines
// hammer their own matrices through that thrash, and the Run counter
// must not move after the initial cold tunes — evicted matrices
// re-prepare from their stored plan with ZERO new tuning measurements.
func TestServerEvictionUnderLoadReprepFromPlan(t *testing.T) {
	eng, cn := newCountingEngine(t)

	ms := []*matrix.CSR{
		gen.Banded(800, 4, 0.9, 11),
		gen.UniformRandom(700, 6, 12),
		gen.Unstructured3D(600, 8, 0.5, 13),
		gen.Banded(900, 2, 1.0, 14),
	}
	srv := New(eng, Config{MemoryBudget: 1})
	defer srv.Close()
	for i, m := range ms {
		if err := srv.Register(fmt.Sprintf("m%d", i), m); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: cold-tune each matrix once. With a 1-byte budget each
	// Warm evicts the previous kernel immediately.
	for i := range ms {
		if err := srv.Warm(fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	r0 := cn.runs.Load()
	if r0 == 0 {
		t.Fatal("cold tunes performed no measurements — counter shim is not wired")
	}
	// Phase 1 leaves m3 resident, and its goroutine below can finish
	// before another preparation evicts it. Re-warming m0 from its
	// stored plan evicts m3 first, so every matrix re-prepares at least
	// once whatever the goroutines' order.
	if err := srv.Warm("m0"); err != nil {
		t.Fatal(err)
	}

	// Phase 2: the eviction storm. Every request on a non-resident
	// matrix re-prepares; the counter must stay at r0 throughout.
	iters := 12
	if testing.Short() {
		iters = 4
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for i, m := range ms {
		wg.Add(1)
		go func(i int, m *matrix.CSR) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			x := make([]float64, m.NCols)
			y := make([]float64, m.NRows)
			ref := make([]float64, m.NRows)
			for it := 0; it < iters; it++ {
				for j := range x {
					x[j] = rng.Float64()
				}
				if err := srv.MulVec(fmt.Sprintf("m%d", i), x, y); err != nil {
					errc <- fmt.Errorf("m%d: %w", i, err)
					return
				}
				m.MulVec(x, ref)
				for j := range ref {
					tol := diffRelTol * math.Max(1, math.Abs(ref[j]))
					if math.Abs(y[j]-ref[j]) > tol {
						errc <- fmt.Errorf("m%d iter %d: y[%d] wrong after re-preparation", i, it, j)
						return
					}
				}
			}
		}(i, m)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if r := cn.runs.Load(); r != r0 {
		t.Errorf("eviction storm performed %d new tuning measurements, want 0", r-r0)
	}
	for _, st := range srv.Stats() {
		if st.Tunes != 1 {
			t.Errorf("%s: %d tunes, want exactly 1", st.Name, st.Tunes)
		}
		if st.WarmPrepares == 0 {
			t.Errorf("%s: no warm re-preparations despite the 1-byte budget", st.Name)
		}
		if st.Evictions == 0 {
			t.Errorf("%s: never evicted despite the 1-byte budget", st.Name)
		}
		if st.ResidentBytes > 0 && !st.Resident {
			t.Errorf("%s: inconsistent residency: bytes=%d resident=%v", st.Name, st.ResidentBytes, st.Resident)
		}
	}
}
