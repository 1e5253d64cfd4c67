package spmvtuner

import (
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

func buildRandom(rows, cols, per int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for k := 0; k < per; k++ {
			b.Add(i, rng.Intn(cols), rng.NormFloat64())
		}
	}
	return b.Build()
}

func TestBuilderAndAccessors(t *testing.T) {
	m := NewBuilder(3, 4).Add(0, 0, 1).Add(2, 3, -2).Add(0, 0, 1).Build()
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims %dx%d", m.Rows(), m.Cols())
	}
	if m.NNZ() != 2 { // duplicate summed
		t.Fatalf("nnz = %d, want 2", m.NNZ())
	}
}

func TestReferenceMulVec(t *testing.T) {
	m := NewBuilder(2, 2).Add(0, 0, 2).Add(1, 1, 3).Build()
	x := []float64{1, 10}
	y := make([]float64, 2)
	m.MulVec(x, y)
	if y[0] != 2 || y[1] != 30 {
		t.Fatalf("y = %v", y)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := buildRandom(50, 40, 3, 1)
	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != m.Rows() || back.NNZ() != m.NNZ() {
		t.Fatal("round trip changed the matrix")
	}
}

func TestLoadNamesMatrixByFileStem(t *testing.T) {
	dir := t.TempDir()
	for file, want := range map[string]string{
		"bcsstk17.mtx":  "bcsstk17",
		"web.graph.mtx": "web.graph",
		"noext":         "noext",
	} {
		path := filepath.Join(dir, file)
		if err := Save(path, buildRandom(5, 5, 2, 1)); err != nil {
			t.Fatal(err)
		}
		m, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != want {
			t.Errorf("Load(%q).Name() = %q, want %q", file, m.Name(), want)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/does/not/exist.mtx"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSuiteMatrix(t *testing.T) {
	m, err := SuiteMatrix("poisson3Db", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "poisson3Db" || m.NNZ() == 0 {
		t.Fatalf("suite matrix broken: %s nnz=%d", m.Name(), m.NNZ())
	}
	if _, err := SuiteMatrix("bogus", 1); err == nil {
		t.Fatal("unknown suite name accepted")
	}
	// The paper's 32 evaluation matrices plus the symmetric SPD suite
	// (lap2d, lap3d, sym-fem); every listed name must resolve.
	if len(SuiteNames()) != 35 {
		t.Fatalf("suite names = %d, want 35", len(SuiteNames()))
	}
	for _, name := range SuiteNames() {
		if _, err := SuiteMatrix(name, 0.005); err != nil {
			t.Fatalf("listed suite name %q does not resolve: %v", name, err)
		}
	}
}

func TestTunedMulVecCorrect(t *testing.T) {
	m := buildRandom(3000, 3000, 6, 2)
	tuned := NewTuner().Tune(m)
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	want := make([]float64, m.Rows())
	m.MulVec(x, want)
	got := make([]float64, m.Rows())
	tuned.MulVec(x, got)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("y[%d] = %g, want %g (opts %s)", i, got[i], want[i], tuned.Optimizations())
		}
	}
}

func TestTunedMulVecConcurrent(t *testing.T) {
	m := buildRandom(4000, 4000, 5, 11)
	tu := NewTuner()
	defer tu.Close()
	tuned := tu.Tune(m)
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = float64(i%11) - 5
	}
	want := make([]float64, m.Rows())
	m.MulVec(x, want)
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, m.Rows())
			for it := 0; it < 3; it++ {
				tuned.MulVec(x, y)
			}
			for i := range want {
				if math.Abs(want[i]-y[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Errorf("y[%d] = %g, want %g", i, y[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTunedMulVecBatch(t *testing.T) {
	m := buildRandom(2000, 2000, 5, 12)
	tu := NewTuner()
	defer tu.Close()
	tuned := tu.Tune(m)
	const batch = 4
	xs := make([][]float64, batch)
	ys := make([][]float64, batch)
	for b := range xs {
		xs[b] = make([]float64, m.Cols())
		for i := range xs[b] {
			xs[b][i] = float64((i+b)%9) - 4
		}
		ys[b] = make([]float64, m.Rows())
	}
	tuned.MulVecBatch(xs, ys)
	want := make([]float64, m.Rows())
	for b := range xs {
		m.MulVec(xs[b], want)
		for i := range want {
			if math.Abs(want[i]-ys[b][i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("batch %d: y[%d] = %g, want %g", b, i, ys[b][i], want[i])
			}
		}
	}
}

func TestTunedMulVecBatchPanics(t *testing.T) {
	m := buildRandom(100, 100, 3, 13)
	tu := NewTuner()
	defer tu.Close()
	tuned := tu.Tune(m)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("length mismatch", func() {
		tuned.MulVecBatch(make([][]float64, 2), make([][]float64, 1))
	})
	mustPanic("dimension mismatch", func() {
		tuned.MulVecBatch([][]float64{make([]float64, 5)}, [][]float64{make([]float64, 100)})
	})
}

func TestTunerCloseIdempotent(t *testing.T) {
	m := buildRandom(500, 500, 4, 14)
	tu := NewTuner()
	tuned := tu.Tune(m)
	if err := tu.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tu.Close(); err != nil {
		t.Fatal(err)
	}
	// Tuned kernels survive Close via the transient fallback.
	x := make([]float64, m.Cols())
	y := make([]float64, m.Rows())
	tuned.MulVec(x, y)
}

func TestTunedMulVecDimensionPanic(t *testing.T) {
	m := buildRandom(100, 100, 3, 3)
	tuned := NewTuner().Tune(m)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	tuned.MulVec(make([]float64, 5), make([]float64, 100))
}

func TestAnalyzeOnModeledPlatform(t *testing.T) {
	m, err := SuiteMatrix("ASIC_680k", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	a := NewTuner(OnPlatform("knc")).Analyze(m)
	if a.Classes == "" || a.Optimizations == "" {
		t.Fatalf("empty analysis: %+v", a)
	}
	if a.BaselineGflops <= 0 || a.OptimizedGflops <= 0 {
		t.Fatalf("degenerate rates: %+v", a)
	}
	// The skewed matrix must be detected as imbalanced and optimized
	// at least as well as the baseline.
	if a.OptimizedGflops < a.BaselineGflops {
		t.Fatalf("optimization regressed: %+v", a)
	}
}

func TestOnPlatformUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown platform did not panic")
		}
	}()
	NewTuner(OnPlatform("gpu"))
}

func TestWithThresholds(t *testing.T) {
	tu := NewTuner(WithThresholds(2.0, 2.0))
	m := buildRandom(500, 500, 4, 4)
	_ = tu.Analyze(m) // must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("invalid thresholds did not panic")
		}
	}()
	NewTuner(WithThresholds(-1, 1))
}

func TestTunedInfoExposed(t *testing.T) {
	m := buildRandom(1000, 1000, 5, 5)
	k := NewTuner(OnPlatform("knl")).Tune(m)
	if k.Classes() != k.Info().Classes {
		t.Fatal("Info/Classes mismatch")
	}
	if k.Optimizations() == "" {
		t.Fatal("no optimization string")
	}
}

// TestTunedMulMat: the interleaved multi-RHS entry point must match
// per-vector reference multiplies for register-blocked and generic
// widths.
func TestTunedMulMat(t *testing.T) {
	m := buildRandom(1500, 1500, 5, 21)
	tu := NewTuner()
	defer tu.Close()
	tuned := tu.Tune(m)
	want := make([]float64, m.Rows())
	xv := make([]float64, m.Cols())
	for _, k := range []int{1, 3, 8} {
		x := make([]float64, m.Cols()*k)
		for i := range x {
			x[i] = float64((i+k)%11) - 5
		}
		y := make([]float64, m.Rows()*k)
		tuned.MulMat(x, y, k)
		for l := 0; l < k; l++ {
			for j := 0; j < m.Cols(); j++ {
				xv[j] = x[j*k+l]
			}
			m.MulVec(xv, want)
			for i := range want {
				if math.Abs(want[i]-y[i*k+l]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("k=%d rhs=%d: y[%d] = %g, want %g", k, l, i, y[i*k+l], want[i])
				}
			}
		}
	}
}

// TestTunedAliasingRejected: no multiply path may accept aliased input
// and output — an aliased call silently computes garbage (y is written
// while x is still being gathered), so it panics instead.
func TestTunedAliasingRejected(t *testing.T) {
	m := buildRandom(100, 100, 3, 22)
	tu := NewTuner()
	defer tu.Close()
	tuned := tu.Tune(m)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	v := make([]float64, 100)
	mustPanic("MulVec aliased", func() { tuned.MulVec(v, v) })
	other := make([]float64, 100)
	mustPanic("MulVecBatch aliased", func() {
		tuned.MulVecBatch([][]float64{other, v}, [][]float64{make([]float64, 100), v})
	})
	mustPanic("MulVecBatch cross-pair aliased", func() {
		// Input 1 shares output 0: block 0's results would be read as
		// block 1's input. The blanket rule must catch it.
		tuned.MulVecBatch([][]float64{other, v}, [][]float64{v, make([]float64, 100)})
	})
	vb := make([]float64, 100*2)
	mustPanic("MulMat aliased", func() { tuned.MulMat(vb, vb, 2) })
	mustPanic("MulMat bad nrhs", func() { tuned.MulMat(vb, vb, 0) })
}
