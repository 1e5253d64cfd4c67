package spmvtuner

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/gen"
)

func facadeMatrix(n, hw int, seed int64) *Matrix {
	return &Matrix{csr: gen.Banded(n, hw, 0.9, seed)}
}

// TestServerFacadeServes drives the public server — NewServer over a
// NewTuner — with concurrent clients on two matrices and verifies
// every answer against the facade's own MulVec reference.
func TestServerFacadeServes(t *testing.T) {
	tuner := NewTuner()
	defer tuner.Close()
	srv := NewServer(tuner, ServerConfig{})
	defer srv.Close()

	ma := facadeMatrix(1200, 4, 1)
	mb := facadeMatrix(900, 6, 2)
	if err := srv.Register("a", ma); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("b", mb); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("a", ma); err == nil {
		t.Fatal("duplicate register accepted")
	}
	if err := srv.Register("nil", nil); err == nil {
		t.Fatal("nil matrix accepted")
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name, m := "a", ma
			if c%2 == 1 {
				name, m = "b", mb
			}
			x := make([]float64, m.Cols())
			for i := range x {
				x[i] = float64((i+c)%9) - 4
			}
			ref := make([]float64, m.Rows())
			m.MulVec(x, ref)
			y := make([]float64, m.Rows())
			for it := 0; it < 10; it++ {
				if err := srv.MulVec(name, x, y); err != nil {
					errc <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				for i := range ref {
					tol := 1e-12 * math.Max(1, math.Abs(ref[i]))
					if math.Abs(y[i]-ref[i]) > tol {
						errc <- fmt.Errorf("client %d: y[%d] wrong", c, i)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	stats := srv.Stats()
	if len(stats) != 2 {
		t.Fatalf("%d stats rows, want 2", len(stats))
	}
	for _, st := range stats {
		if st.Requests != 40 || st.Tunes != 1 || st.Plan == "" {
			t.Errorf("%s: requests=%d tunes=%d plan=%q", st.Name, st.Requests, st.Tunes, st.Plan)
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	y := make([]float64, ma.Rows())
	x := make([]float64, ma.Cols())
	if err := srv.MulVec("a", x, y); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("mulvec after close: %v, want ErrServerClosed", err)
	}
	// The tuner outlives the server.
	k := tuner.Tune(ma)
	k.MulVec(x, y)
}

// TestTunerReleaseWarmRetune is the Tuner.Release contract: releasing
// a tuned matrix frees the executor's caches, and the next Tune is a
// plan-store warm start that still computes correctly. Releasing an
// unknown matrix is a no-op.
func TestTunerReleaseWarmRetune(t *testing.T) {
	tuner := NewTuner()
	defer tuner.Close()
	m := facadeMatrix(1500, 5, 3)

	k1 := tuner.Tune(m)
	if k1.Info().Warm {
		t.Fatal("first tune reported warm")
	}
	tuner.Release(m)

	k2 := tuner.Tune(m)
	if !k2.Info().Warm {
		t.Fatal("re-tune after release missed the plan store")
	}
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	ref := make([]float64, m.Rows())
	m.MulVec(x, ref)
	y := make([]float64, m.Rows())
	k2.MulVec(x, y)
	for i := range ref {
		tol := 1e-12 * math.Max(1, math.Abs(ref[i]))
		if math.Abs(y[i]-ref[i]) > tol {
			t.Fatalf("post-release kernel: y[%d] = %g, want %g", i, y[i], ref[i])
		}
	}

	tuner.Release(facadeMatrix(64, 2, 4)) // never tuned: a no-op
}

// TestServerFacadeBudgetEviction squeezes two matrices through a
// budget that fits one: serving alternates eviction and warm
// re-preparation, visibly in the stats, invisibly in the results.
func TestServerFacadeBudgetEviction(t *testing.T) {
	tuner := NewTuner()
	defer tuner.Close()
	srv := NewServer(tuner, ServerConfig{MemoryBudget: 1})
	defer srv.Close()

	ma := facadeMatrix(1000, 4, 5)
	mb := facadeMatrix(1100, 3, 6)
	if err := srv.Register("a", ma); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("b", mb); err != nil {
		t.Fatal(err)
	}

	mulOK := func(name string, m *Matrix) {
		t.Helper()
		x := make([]float64, m.Cols())
		for i := range x {
			x[i] = float64(i%5) + 1
		}
		ref := make([]float64, m.Rows())
		m.MulVec(x, ref)
		y := make([]float64, m.Rows())
		if err := srv.MulVec(name, x, y); err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			tol := 1e-12 * math.Max(1, math.Abs(ref[i]))
			if math.Abs(y[i]-ref[i]) > tol {
				t.Fatalf("%s: y[%d] wrong after eviction churn", name, i)
			}
		}
	}
	for round := 0; round < 3; round++ {
		mulOK("a", ma)
		mulOK("b", mb)
	}

	for _, st := range srv.Stats() {
		if st.Tunes != 1 {
			t.Errorf("%s tuned %d times; evicted kernels must re-prepare from the plan store", st.Name, st.Tunes)
		}
		if st.Evictions == 0 || st.WarmPrepares == 0 {
			t.Errorf("%s: evictions=%d warm=%d under a 1-byte budget", st.Name, st.Evictions, st.WarmPrepares)
		}
	}
}

// TestServerShape: Shape reports a registered matrix's rows and
// columns, and nothing once it is deregistered or for a name never
// registered.
func TestServerShape(t *testing.T) {
	tuner := NewTuner()
	defer tuner.Close()
	srv := NewServer(tuner, ServerConfig{})
	defer srv.Close()

	m := NewBuilder(30, 20).Add(0, 0, 1).Add(29, 19, 2).Build()
	if err := srv.Register("a", m); err != nil {
		t.Fatal(err)
	}
	if rows, cols, ok := srv.Shape("a"); !ok || rows != 30 || cols != 20 {
		t.Fatalf("Shape(a) = %d, %d, %v; want 30, 20, true", rows, cols, ok)
	}
	if err := srv.Deregister("a"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := srv.Shape("a"); ok {
		t.Fatal("deregistered matrix still has a shape")
	}
	if _, _, ok := srv.Shape("ghost"); ok {
		t.Fatal("unknown matrix has a shape")
	}
}
