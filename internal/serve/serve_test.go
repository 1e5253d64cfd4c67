package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// diffRelTol matches the cross-format differential harness: blocked
// SpMM reorders additions, so results may differ from the serial
// reference by a few ulps, never more.
const diffRelTol = 1e-12

func checkVec(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i := range want {
		tol := diffRelTol * math.Max(1, math.Abs(want[i]))
		if d := math.Abs(got[i] - want[i]); d > tol || math.IsNaN(got[i]) {
			t.Fatalf("%s: y[%d] = %g, want %g (diff %g)", tag, i, got[i], want[i], d)
		}
	}
}

// newNativeEngine builds the real serving backend: native execution
// with an in-memory plan store, shared across servers in a test so
// each matrix tunes exactly once.
func newNativeEngine(t testing.TB) (*PipelineEngine, *native.Executor) {
	t.Helper()
	nat := native.New()
	t.Cleanup(func() { nat.Close() })
	pipe := core.New(nat)
	pipe.Store = planstore.New(planstore.DefaultCapacity)
	return NewPipelineEngine(pipe), nat
}

// TestServeCoalescingDifferential is the coalescing correctness sweep:
// for every batch width 1..8, N concurrent goroutines submit random
// vectors against shared matrices (general and symmetric, so the
// blocked CSR and SSS scatter paths both serve), and every returned y
// must match the serial CSR reference regardless of which coalesced
// batch it landed in. Client counts are deliberately not multiples of
// the width, so ragged tail batches occur constantly.
func TestServeCoalescingDifferential(t *testing.T) {
	eng, _ := newNativeEngine(t)

	ms := map[string]*matrix.CSR{
		"poisson": suite.ByName("poisson3Db", 0.015),
		"thermal": suite.ByName("FEM_3D_thermal2", 0.015),
		"lap2d":   suite.ByName("lap2d", 0.008),
	}
	for name, m := range ms {
		if m == nil {
			t.Fatalf("suite matrix %s missing", name)
		}
	}

	for width := 1; width <= 8; width++ {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			srv := New(eng, Config{MaxBatch: width})
			defer srv.Close()
			for name, m := range ms {
				if err := srv.Register(name, m); err != nil {
					t.Fatal(err)
				}
			}

			var wg sync.WaitGroup
			errc := make(chan error, 64)
			clients := width + 3 // ragged: never a multiple of the width
			const perClient = 5
			for name, m := range ms {
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(name string, m *matrix.CSR, c int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(width*1000 + c)))
						x := make([]float64, m.NCols)
						y := make([]float64, m.NRows)
						ref := make([]float64, m.NRows)
						for it := 0; it < perClient; it++ {
							for i := range x {
								x[i] = rng.Float64()*2 - 1
							}
							if err := srv.MulVec(name, x, y); err != nil {
								errc <- fmt.Errorf("%s client %d: %w", name, c, err)
								return
							}
							m.MulVec(x, ref)
							for i := range ref {
								tol := diffRelTol * math.Max(1, math.Abs(ref[i]))
								if d := math.Abs(y[i] - ref[i]); d > tol || math.IsNaN(y[i]) {
									errc <- fmt.Errorf("%s client %d width %d: y[%d]=%g want %g",
										name, c, width, i, y[i], ref[i])
									return
								}
							}
						}
					}(name, m, c)
				}
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}

			for name := range ms {
				st, ok := srv.StatsFor(name)
				if !ok {
					t.Fatalf("no stats for %s", name)
				}
				if st.Requests != uint64(clients*perClient) {
					t.Errorf("%s: served %d requests, want %d", name, st.Requests, clients*perClient)
				}
				if st.MeanBatchWidth > float64(width)+1e-9 {
					t.Errorf("%s: mean batch width %.2f exceeds cap %d", name, st.MeanBatchWidth, width)
				}
				if st.Tunes+st.WarmPrepares == 0 {
					t.Errorf("%s: no preparation recorded", name)
				}
			}
		})
	}
}

// ---- stub engine machinery for the unit tests ----

// stubKernel computes via the serial reference; an optional gate makes
// every call block until released, so tests can pin the dispatcher
// mid-batch deterministically.
type stubKernel struct {
	m       *matrix.CSR
	entered chan struct{} // signaled on every kernel call when non-nil
	gate    chan struct{} // received from on every call when non-nil
	batches atomic.Int64
	widest  atomic.Int64 // widest MulVecBatch call; the dispatcher is the only caller
}

func (k *stubKernel) wait() {
	if k.entered != nil {
		k.entered <- struct{}{}
	}
	if k.gate != nil {
		<-k.gate
	}
}

func (k *stubKernel) MulVec(x, y []float64) {
	k.batches.Add(1)
	k.wait()
	k.m.MulVec(x, y)
}

func (k *stubKernel) MulVecBatch(xs, ys [][]float64) {
	k.batches.Add(1)
	if w := int64(len(xs)); w > k.widest.Load() {
		k.widest.Store(w)
	}
	k.wait()
	for i := range xs {
		k.m.MulVec(xs[i], ys[i])
	}
}

// stubEngine hands out stubKernels with scripted byte sizes and counts
// prepare/release traffic.
type stubEngine struct {
	mu       sync.Mutex
	bytes    map[*matrix.CSR]int64
	prepares map[*matrix.CSR]int
	releases map[*matrix.CSR]int
	kernels  map[*matrix.CSR]*stubKernel
	entered  chan struct{}
	gate     chan struct{}
	failWith error
}

func newStubEngine() *stubEngine {
	return &stubEngine{
		bytes:    make(map[*matrix.CSR]int64),
		prepares: make(map[*matrix.CSR]int),
		releases: make(map[*matrix.CSR]int),
		kernels:  make(map[*matrix.CSR]*stubKernel),
	}
}

func (s *stubEngine) Prepare(m *matrix.CSR) (Kernel, PrepInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failWith != nil {
		return nil, PrepInfo{}, s.failWith
	}
	s.prepares[m]++
	k := &stubKernel{m: m, entered: s.entered, gate: s.gate}
	s.kernels[m] = k
	b := s.bytes[m]
	if b == 0 {
		b = m.Bytes()
	}
	return k, PrepInfo{Bytes: b, Warm: s.prepares[m] > 1, Plan: "stub"}, nil
}

func (s *stubEngine) Release(m *matrix.CSR) {
	s.mu.Lock()
	s.releases[m]++
	s.mu.Unlock()
}

func (s *stubEngine) prepareCount(m *matrix.CSR) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prepares[m]
}

func (s *stubEngine) releaseCount(m *matrix.CSR) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.releases[m]
}

func smallMatrix(seed int64) *matrix.CSR { return gen.Banded(64, 3, 0.9, seed) }

func oneRequest(t *testing.T, srv *Server, name string, m *matrix.CSR) {
	t.Helper()
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = float64(i%3) + 1
	}
	y := make([]float64, m.NRows)
	if err := srv.MulVec(name, x, y); err != nil {
		t.Fatalf("MulVec(%s): %v", name, err)
	}
}

func TestServerRegisterErrors(t *testing.T) {
	srv := New(newStubEngine(), Config{})
	m := smallMatrix(1)
	if err := srv.Register("", m); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := srv.Register("a", nil); err == nil {
		t.Fatal("nil matrix accepted")
	}
	if err := srv.Register("a", m); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("a", m); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("b", m); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestServerMulVecErrors(t *testing.T) {
	srv := New(newStubEngine(), Config{})
	defer srv.Close()
	m := smallMatrix(2)
	if err := srv.Register("a", m); err != nil {
		t.Fatal(err)
	}

	x := make([]float64, m.NCols)
	y := make([]float64, m.NRows)
	if err := srv.MulVec("nope", x, y); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown matrix: %v, want ErrNotFound", err)
	}
	if err := srv.MulVec("a", x[:3], y); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("short x accepted: %v", err)
	}
	if err := srv.MulVec("a", x, y[:3]); err == nil {
		t.Fatal("short y accepted")
	}
	buf := make([]float64, m.NCols) // square: rows == cols
	if err := srv.MulVec("a", buf, buf); err == nil {
		t.Fatal("aliased x/y accepted")
	}
	if err := srv.MulVec("a", x, y); err != nil {
		t.Fatalf("valid request failed: %v", err)
	}
}

func TestServerPrepareFailureSurfacesAndRetries(t *testing.T) {
	eng := newStubEngine()
	eng.failWith = errors.New("boom")
	srv := New(eng, Config{})
	defer srv.Close()
	m := smallMatrix(3)
	if err := srv.Register("a", m); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.NCols)
	y := make([]float64, m.NRows)
	if err := srv.MulVec("a", x, y); err == nil {
		t.Fatal("prepare failure not surfaced")
	}
	st, _ := srv.StatsFor("a")
	if st.Errors == 0 {
		t.Fatalf("failed request not counted: %+v", st)
	}
	// The failure is transient: the next request retries preparation.
	eng.mu.Lock()
	eng.failWith = nil
	eng.mu.Unlock()
	if err := srv.MulVec("a", x, y); err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
}

// TestServerCoalescesQueuedRequests pins the dispatcher inside a gated
// batch, queues more traffic behind it, and checks the backlog drains
// as ONE coalesced batch.
func TestServerCoalescesQueuedRequests(t *testing.T) {
	eng := newStubEngine()
	eng.entered = make(chan struct{}, 16)
	eng.gate = make(chan struct{})
	srv := New(eng, Config{MaxBatch: 8})
	defer srv.Close()
	m := smallMatrix(4)
	if err := srv.Register("a", m); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 8)
	sub := func() {
		x := make([]float64, m.NCols)
		y := make([]float64, m.NRows)
		done <- srv.MulVec("a", x, y)
	}
	go sub()
	<-eng.entered // batch 1 (width 1) is executing, dispatcher pinned
	for i := 0; i < 7; i++ {
		go sub()
	}
	// Wait until all 7 are queued behind the pinned batch.
	deadline := time.After(5 * time.Second)
	for {
		srv.mu.Lock()
		e := srv.entries["a"]
		srv.mu.Unlock()
		if len(e.ch) == 7 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("backlog never reached 7")
		case <-time.After(time.Millisecond):
		}
	}
	eng.gate <- struct{}{} // release batch 1
	<-eng.entered          // batch 2: the 7 queued requests coalesced
	eng.gate <- struct{}{} // release batch 2
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st, _ := srv.StatsFor("a")
	if st.Requests != 8 || st.Batches != 2 {
		t.Fatalf("requests=%d batches=%d, want 8/2", st.Requests, st.Batches)
	}
	if st.MeanBatchWidth != 4.0 {
		t.Fatalf("mean batch width %.2f, want 4.0", st.MeanBatchWidth)
	}
}

// TestServerCoalescesAtOneThread runs closed-loop clients on one P.
// The dispatcher's yield is what runs the clients the previous batch
// just answered, so their next requests join the batch; without it
// every batch would leave carrying a single request.
func TestServerCoalescesAtOneThread(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const maxBatch, clients, perClient = 8, 8, 50
	eng := newStubEngine()
	srv := New(eng, Config{MaxBatch: maxBatch})
	defer srv.Close()
	m := smallMatrix(6)
	if err := srv.Register("a", m); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := make([]float64, m.NCols)
			y := make([]float64, m.NRows)
			for i := 0; i < perClient; i++ {
				if err := srv.MulVec("a", x, y); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st, _ := srv.StatsFor("a")
	if st.Requests != clients*perClient {
		t.Fatalf("served %d requests, want %d", st.Requests, clients*perClient)
	}
	if st.MeanBatchWidth < 4 {
		t.Fatalf("mean batch width %.2f at GOMAXPROCS=1, want >= 4", st.MeanBatchWidth)
	}
	t.Logf("mean batch width %.2f", st.MeanBatchWidth)
	eng.mu.Lock()
	widest := eng.kernels[m].widest.Load()
	eng.mu.Unlock()
	if widest > maxBatch {
		t.Fatalf("a batch carried %d requests, cap %d", widest, maxBatch)
	}
}

func TestServerBusyBackpressure(t *testing.T) {
	eng := newStubEngine()
	eng.entered = make(chan struct{}, 16)
	eng.gate = make(chan struct{})
	srv := New(eng, Config{MaxBatch: 8, QueueDepth: 1})
	defer srv.Close()
	m := smallMatrix(5)
	if err := srv.Register("a", m); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 4)
	sub := func() {
		x := make([]float64, m.NCols)
		y := make([]float64, m.NRows)
		done <- srv.MulVec("a", x, y)
	}
	go sub()
	<-eng.entered // dispatcher pinned in request 1
	go sub()      // fills the depth-1 queue
	for {
		srv.mu.Lock()
		qlen := len(srv.entries["a"].ch)
		srv.mu.Unlock()
		if qlen == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	x := make([]float64, m.NCols)
	y := make([]float64, m.NRows)
	if err := srv.MulVec("a", x, y); !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow submit: %v, want ErrBusy", err)
	}
	eng.gate <- struct{}{}
	<-eng.entered
	eng.gate <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerDeregister(t *testing.T) {
	eng := newStubEngine()
	srv := New(eng, Config{})
	defer srv.Close()
	m := smallMatrix(6)
	if err := srv.Register("a", m); err != nil {
		t.Fatal(err)
	}
	oneRequest(t, srv, "a", m) // kernel resident
	if err := srv.Deregister("a"); err != nil {
		t.Fatal(err)
	}
	// The kernel's resources are released (dispatcher teardown is
	// asynchronous).
	deadline := time.After(5 * time.Second)
	for eng.releaseCount(m) == 0 {
		select {
		case <-deadline:
			t.Fatal("deregister never released the kernel")
		case <-time.After(time.Millisecond):
		}
	}
	x := make([]float64, m.NCols)
	y := make([]float64, m.NRows)
	if err := srv.MulVec("a", x, y); !errors.Is(err, ErrNotFound) {
		t.Fatalf("request after deregister: %v, want ErrNotFound", err)
	}
	if err := srv.Deregister("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double deregister: %v, want ErrNotFound", err)
	}
	// The name is immediately reusable.
	if err := srv.Register("a", smallMatrix(7)); err != nil {
		t.Fatalf("re-register: %v", err)
	}
}

// TestServerEvictionLRU scripts kernel sizes through the stub engine
// and checks the budget evicts the least-recently-USED matrix, not the
// least recently registered one.
func TestServerEvictionLRU(t *testing.T) {
	eng := newStubEngine()
	srv := New(eng, Config{MemoryBudget: 100})
	defer srv.Close()
	ma, mb, mc := smallMatrix(10), smallMatrix(11), smallMatrix(12)
	for _, v := range []struct {
		n string
		m *matrix.CSR
	}{{"a", ma}, {"b", mb}, {"c", mc}} {
		eng.bytes[v.m] = 40
		if err := srv.Register(v.n, v.m); err != nil {
			t.Fatal(err)
		}
	}

	oneRequest(t, srv, "a", ma) // resident: a
	oneRequest(t, srv, "b", mb) // resident: a, b
	oneRequest(t, srv, "a", ma) // touch a — b is now the LRU
	oneRequest(t, srv, "c", mc) // 120 > 100: b evicted

	if n := eng.releaseCount(mb); n != 1 {
		t.Fatalf("b released %d times, want 1", n)
	}
	if n := eng.releaseCount(ma) + eng.releaseCount(mc); n != 0 {
		t.Fatalf("a/c released %d times, want 0", n)
	}
	stB, _ := srv.StatsFor("b")
	if stB.Resident || stB.Evictions != 1 {
		t.Fatalf("b stats after eviction: resident=%v evictions=%d", stB.Resident, stB.Evictions)
	}
	stA, _ := srv.StatsFor("a")
	if !stA.Resident {
		t.Fatal("a not resident after touch")
	}

	// b re-prepares on demand — a second prepare, flagged warm by the
	// stub — and evicts the new LRU (a was used before c).
	oneRequest(t, srv, "b", mb)
	if n := eng.prepareCount(mb); n != 2 {
		t.Fatalf("b prepared %d times, want 2", n)
	}
	stB, _ = srv.StatsFor("b")
	if stB.WarmPrepares != 1 || stB.Tunes != 1 {
		t.Fatalf("b preparation counters: tunes=%d warm=%d, want 1/1", stB.Tunes, stB.WarmPrepares)
	}
	if n := eng.releaseCount(ma); n != 1 {
		t.Fatalf("a released %d times after b's return, want 1", n)
	}
}

func TestServerStatsShape(t *testing.T) {
	eng, nat := newNativeEngine(t)
	srv := New(eng, Config{})
	defer srv.Close()
	m := suite.ByName("poisson3Db", 0.01)
	if err := srv.Register("p", m); err != nil {
		t.Fatal(err)
	}
	if err := srv.Warm("p"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		oneRequest(t, srv, "p", m)
	}
	st, ok := srv.StatsFor("p")
	if !ok {
		t.Fatal("stats missing")
	}
	if st.Requests != 5 || st.Batches == 0 || st.Batches > 5 {
		t.Fatalf("requests=%d batches=%d", st.Requests, st.Batches)
	}
	if st.MeanBatchWidth < 1 {
		t.Fatalf("mean batch width %.2f < 1", st.MeanBatchWidth)
	}
	if st.AchievedGflops <= 0 {
		t.Fatalf("achieved gflops %.3f", st.AchievedGflops)
	}
	if st.P50LatencyMicros <= 0 || st.P99LatencyMicros < st.P50LatencyMicros {
		t.Fatalf("latency percentiles p50=%.1f p99=%.1f", st.P50LatencyMicros, st.P99LatencyMicros)
	}
	if st.Plan == "" || !st.Resident || st.ResidentBytes <= 0 {
		t.Fatalf("kernel cache fields: plan=%q resident=%v bytes=%d", st.Plan, st.Resident, st.ResidentBytes)
	}
	// The width is the executor's, whatever the plan: its baseline
	// kernel for m runs at the same one.
	if want := nat.Prepare(m, ex.Optim{}).Threads(); st.Threads != want || st.Threads < 1 {
		t.Fatalf("threads = %d, want the executor's %d", st.Threads, want)
	}
	if st.Tunes != 1 || st.WarmPrepares != 0 {
		t.Fatalf("preparation counters: tunes=%d warm=%d", st.Tunes, st.WarmPrepares)
	}
	if names := srv.Names(); len(names) != 1 || names[0] != "p" {
		t.Fatalf("names = %v", names)
	}
	all := srv.Stats()
	if len(all) != 1 || all[0].Name != "p" {
		t.Fatalf("stats list = %+v", all)
	}
}

// TestServerCloseCompletesInFlight closes the server while a gated
// batch executes and a request is queued behind it: Close must wait for
// the in-flight batch, and every request must resolve one way or the
// other.
func TestServerCloseCompletesInFlight(t *testing.T) {
	eng := newStubEngine()
	eng.entered = make(chan struct{}, 16)
	eng.gate = make(chan struct{}, 16)
	srv := New(eng, Config{})
	m := smallMatrix(20)
	if err := srv.Register("a", m); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	sub := func() {
		x := make([]float64, m.NCols)
		y := make([]float64, m.NRows)
		done <- srv.MulVec("a", x, y)
	}
	go sub()
	<-eng.entered // batch 1 pinned
	go sub()      // queued
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	// Close must block on the in-flight batch.
	select {
	case <-closed:
		t.Fatal("Close returned while a batch was executing")
	case <-time.After(20 * time.Millisecond):
	}
	eng.gate <- struct{}{} // release batch 1
	eng.gate <- struct{}{} // in case the dispatcher serves request 2 before stopping
	<-closed
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("request resolved with %v, want nil or ErrClosed", err)
		}
	}
	x := make([]float64, m.NCols)
	y := make([]float64, m.NRows)
	if err := srv.MulVec("a", x, y); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}
