// Benchmarks regenerating every table and figure of the paper (one
// bench per artifact; see DESIGN.md's experiment index) plus native
// kernel micro-benchmarks. The experiment benches run at a reduced
// suite scale so `go test -bench=.` completes in minutes; use
// cmd/spmvbench -scale 1.0 for the full reproduction (recorded in
// EXPERIMENTS.md).
package spmvtuner

import (
	"fmt"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/experiments"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/sim"
	"github.com/sparsekit/spmvtuner/internal/solver"
)

// benchCfg keeps experiment benches affordable; EXPERIMENTS.md records
// the scale-1.0 runs.
var benchCfg = experiments.Config{Scale: 0.1, CorpusSize: 60}

// BenchmarkFig1 regenerates Fig 1: speedups of blindly applied single
// optimizations on the KNC model.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 32 {
			b.Fatal("fig1 incomplete")
		}
	}
}

// BenchmarkFig3 regenerates Fig 3: baseline + per-class bounds on KNC.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 32 {
			b.Fatal("fig3 incomplete")
		}
	}
}

// BenchmarkTable4 regenerates Table IV: feature-guided classifier
// accuracy under Leave-One-Out cross validation.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table4(benchCfg)
		b.ReportMetric(100*res.Rows[1].CV.ExactMatchRatio, "exact%")
		b.ReportMetric(100*res.Rows[1].CV.PartialMatchRatio, "partial%")
	}
}

// BenchmarkFig7KNC regenerates Fig 7a (no Inspector-Executor on KNC).
func BenchmarkFig7KNC(b *testing.B) { benchFig7(b, "knc") }

// BenchmarkFig7KNL regenerates Fig 7b.
func BenchmarkFig7KNL(b *testing.B) { benchFig7(b, "knl") }

// BenchmarkFig7Broadwell regenerates Fig 7c.
func BenchmarkFig7Broadwell(b *testing.B) { benchFig7(b, "bdw") }

func benchFig7(b *testing.B, platform string) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(platform, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgProfVsMKL, "prof-x")
		b.ReportMetric(res.AvgFeatVsMKL, "feat-x")
		if res.AvgIEVsMKL > 0 {
			b.ReportMetric(res.AvgIEVsMKL, "ie-x")
		}
	}
}

// BenchmarkTable5 regenerates Table V: amortization iterations on KNL.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Optimizer == "feature-guided" {
				b.ReportMetric(row.Avg, "feat-iters")
			}
		}
	}
}

// BenchmarkAblateDelta regenerates ablation A1 (delta width).
func BenchmarkAblateDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblateDelta(benchCfg)
	}
}

// BenchmarkAblateSplit regenerates ablation A2 (split threshold).
func BenchmarkAblateSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblateSplit(benchCfg)
	}
}

// BenchmarkAblateSched regenerates ablation A3 (schedule policies).
func BenchmarkAblateSched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblateSched(benchCfg)
	}
}

// BenchmarkAblatePrefetch regenerates ablation A4 (prefetch MLP).
func BenchmarkAblatePrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblatePrefetch(benchCfg)
	}
}

// BenchmarkAblatePartitionedML regenerates ablation A5 (partitioned
// irregularity detection).
func BenchmarkAblatePartitionedML(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PartitionedML(benchCfg)
	}
}

// BenchmarkSimulatedSpMV times one cost-model evaluation (the unit of
// every modeled experiment) on a mid-size matrix.
func BenchmarkSimulatedSpMV(b *testing.B) {
	e := sim.New(machine.KNL())
	m := gen.UniformRandom(200000, 8, 1)
	e.Run(ex.Config{Matrix: m}) // build the profile outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(ex.Config{Matrix: m, Opt: ex.Optim{Vectorize: true, Prefetch: true}})
	}
}

// Native kernel micro-benchmarks: the real Go kernels on the host.
func benchNativeKernel(b *testing.B, k kernels.RangeKernel) {
	m := gen.UniformRandom(100000, 10, 1)
	x := make([]float64, m.NCols)
	y := make([]float64, m.NRows)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(m.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k(m, x, y, 0, m.NRows)
	}
}

// BenchmarkKernelCSR times the scalar Fig 2 kernel.
func BenchmarkKernelCSR(b *testing.B) { benchNativeKernel(b, kernels.CSRRange) }

// BenchmarkKernelVector8 times the 8-accumulator vectorization stand-in.
func BenchmarkKernelVector8(b *testing.B) { benchNativeKernel(b, kernels.CSRVector8Range) }

// BenchmarkKernelDelta times the DeltaCSR kernel every Delta plan
// binds: the dispatched vector decoder (kernels.DeltaVariant).
func BenchmarkKernelDelta(b *testing.B) {
	m := gen.Banded(100000, 12, 0.9, 1)
	d := formats.Compress(m)
	k := kernels.DeltaVariant()
	x := make([]float64, m.NCols)
	y := make([]float64, m.NRows)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(d.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k(d, x, y, 0, d.NRows, 0)
	}
}

// BenchmarkNativeTunedSpMV times the full tuned parallel multiply on
// the host through the public API.
func BenchmarkNativeTunedSpMV(b *testing.B) {
	m, err := SuiteMatrix("poisson3Db", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	tuned := NewTuner().Tune(m)
	x := make([]float64, m.Cols())
	y := make([]float64, m.Rows())
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuned.MulVec(x, y)
	}
}

// BenchmarkMulVecReuse times the persistent prepared kernel on a small
// and a large matrix: every multiply dispatches to the parked worker
// pool and must report 0 allocs/op, the steady-state serving contract
// of the execution engine.
func BenchmarkMulVecReuse(b *testing.B) {
	e := native.New()
	defer e.Close()
	opt := ex.Optim{Vectorize: true, Prefetch: true}
	// Small: dispatch overhead dominates. Large: the kernel is
	// memory-bound.
	for _, size := range []struct {
		name  string
		scale float64
	}{{"small", 0.02}, {"large", 0.2}} {
		m, err := SuiteMatrix("poisson3Db", size.scale)
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, m.Cols())
		y := make([]float64, m.Rows())
		for i := range x {
			x[i] = 1
		}
		b.Run(size.name+"/prepared", func(b *testing.B) {
			p := e.Prepare(m.csr, opt)
			p.MulVec(x, y) // warm: formats converted, workers parked
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.MulVec(x, y)
			}
		})
	}
}

// BenchmarkMulVecBatch compares the per-vector loop against the
// blocked SpMM batch path at k = 1, 4, 8 on a generated MB-bound
// matrix (out of cache, bandwidth dominated). Blocked streams the
// matrix once per block of k vectors, so at k=8 the per-vector matrix
// traffic is 1/8th of the loop's — the acceptance target is ≥ 1.5x
// loop throughput, and the blocked results are held to the per-vector
// reference by the differential tests. Both sub-benchmarks report
// per-vector ns and must stay allocation-free in steady state.
func BenchmarkMulVecBatch(b *testing.B) {
	// ~18M nnz of regular banded structure: the MB-class shape (the
	// suite's FEM_3D_thermal2 family) whose multiply streams the matrix
	// at the bandwidth limit — exactly where blocking pays.
	m := gen.Banded(600000, 16, 0.9, 1)
	e := native.New()
	defer e.Close()
	p := e.Prepare(m, ex.Optim{Vectorize: true})
	for _, k := range []int{1, 4, 8} {
		xs := make([][]float64, k)
		ys := make([][]float64, k)
		for l := range xs {
			xs[l] = make([]float64, m.NCols)
			for i := range xs[l] {
				xs[l][i] = float64(i%5) + float64(l)
			}
			ys[l] = make([]float64, m.NRows)
		}
		b.Run(fmt.Sprintf("k%d/loop", k), func(b *testing.B) {
			p.MulVec(xs[0], ys[0]) // warm
			b.SetBytes(m.Bytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.MulVec(xs[i%k], ys[i%k])
			}
		})
		b.Run(fmt.Sprintf("k%d/blocked", k), func(b *testing.B) {
			p.MulVecBatch(xs, ys) // warm: pack buffers allocated here
			b.SetBytes(m.Bytes())
			b.ReportAllocs()
			b.ResetTimer()
			// b.N counts single multiplies in both paths so ns/op and
			// MB/s compare directly.
			for i := 0; i < b.N; i += k {
				p.MulVecBatch(xs, ys)
			}
		})
	}
}

// BenchmarkStreamTriad reports the host's measured memory bandwidth:
// the saturated rate at the full hardware-thread count (the roofline's
// B_max — the old nt=0 form clamped to ONE thread and reported that as
// host bandwidth), with the single-thread rate labeled separately.
func BenchmarkStreamTriad(b *testing.B) {
	nt := machine.Host().Threads()
	b.Run("saturated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gbs := native.StreamTriad(1<<22, nt, 1)
			b.ReportMetric(gbs, "GB/s")
		}
	})
	b.Run("single-thread", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gbs := native.StreamTriad(1<<22, 1, 1)
			b.ReportMetric(gbs, "GB/s")
		}
	})
}

// BenchmarkCGSolve times a CG solve with the tuned kernel (the Table V
// application context).
func BenchmarkCGSolve(b *testing.B) {
	g := gen.Poisson2D(120, 120)
	bvec := make([]float64, g.NRows)
	for i := range bvec {
		bvec[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solver.CG(g.MulVec, bvec, solver.Options{Tol: 1e-8})
		if err != nil || !res.Converged {
			b.Fatal("CG failed")
		}
	}
}
