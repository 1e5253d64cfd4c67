package experiments

import (
	"fmt"

	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/stats"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// KernelRow compares one kernel family's scalar oracle against its
// dispatched SIMD body on one suite matrix: the tracked kernel-perf
// trajectory (BENCH_kernels.json) is a list of these.
type KernelRow struct {
	Matrix string  `json:"matrix"`
	Kernel string  `json:"kernel"` // family: csr-vec8, delta, sellcs-c8, block4, block8
	NNZ    int     `json:"nnz"`
	Scalar float64 `json:"scalarGflops"`
	Asm    float64 `json:"asmGflops"`
	// Speedup is Asm/Scalar; the regression gate rejects any row
	// meaningfully below 1.
	Speedup float64 `json:"speedup"`
}

// KernelsResult is the single-thread scalar-vs-assembly comparison
// across the suite, one row per (matrix, kernel family).
type KernelsResult struct {
	// ISA is the dispatched instruction set the asm column ran on
	// ("scalar" disables the comparison and the gate).
	ISA  string      `json:"isa"`
	Rows []KernelRow `json:"rows"`
}

// kernelGateSlack absorbs timer and turbo noise in the regression
// gate: an asm body is a regression when it is more than 5% slower
// than its scalar oracle on any suite matrix, under best-of-N timing.
const kernelGateSlack = 0.95

// kernelReps is the loop count each stats.SecondsPerCall call here
// takes the fastest of: the noise-robust per-op timing.
const kernelReps = 5

// Kernels measures every dispatched assembly kernel against its
// pure-Go oracle, single-threaded and straight at the kernel (no
// engine, no scheduler): exactly the code-generation delta. It returns
// the rows only; the wall-clock regression gate is Gate, which callers
// apply where timings are trustworthy.
func Kernels(cfg Config) (*KernelsResult, error) {
	c := cfg.withDefaults()
	sel, err := c.selected("kernels", suite.Evaluation())
	if err != nil {
		return nil, err
	}
	res := &KernelsResult{ISA: kernels.ISA()}

	for _, r := range sel {
		m := r.Build(c.Scale)
		x := make([]float64, m.NCols)
		for i := range x {
			x[i] = 1 + 1/float64(i+2)
		}
		y := make([]float64, m.NRows)
		iters := reuseIters(m.NNZ())
		flops := 2 * float64(m.NNZ())

		rate := func(secPerOp float64, mult float64) float64 {
			if secPerOp <= 0 {
				return 0
			}
			return flops * mult / secPerOp / 1e9
		}

		// CSR vector kernel: dispatched Variant(vec) vs the oracle.
		scalarSec := stats.SecondsPerCall(kernelReps, iters, func() {
			kernels.CSRVector8Range(m, x, y, 0, m.NRows)
		})
		asmK := kernels.Variant(true)
		asmSec := stats.SecondsPerCall(kernelReps, iters, func() {
			asmK(m, x, y, 0, m.NRows)
		})
		res.add(m, "csr-vec8", rate(scalarSec, 1), rate(asmSec, 1))

		// DeltaCSR decoder at the width Compress picks: the dispatched
		// DeltaVariant vs the MulVecRows oracle.
		d := formats.Compress(m)
		scalarSec = stats.SecondsPerCall(kernelReps, iters, func() {
			kernels.DeltaRange(d, x, y, 0, m.NRows, 0)
		})
		deltaK := kernels.DeltaVariant()
		asmSec = stats.SecondsPerCall(kernelReps, iters, func() {
			deltaK(d, x, y, 0, m.NRows, 0)
		})
		res.add(m, "delta", rate(scalarSec, 1), rate(asmSec, 1))

		// SELL-C-σ C=8 chunk kernel.
		s := formats.ConvertSellCSAuto(m)
		if s.C == 8 {
			scalarSec = stats.SecondsPerCall(kernelReps, iters, func() {
				kernels.SellCS8Range(s, x, y, 0, s.NChunks())
			})
			sellK, _ := kernels.SellCSVariant(s)
			asmSec = stats.SecondsPerCall(kernelReps, iters, func() {
				sellK(s, x, y, 0, s.NChunks())
			})
			res.add(m, "sellcs-c8", rate(scalarSec, 1), rate(asmSec, 1))
		}

		// Register-blocked SpMM, k = 4 and 8. Fewer iterations: each op
		// does k× the flops.
		for _, k := range []int{4, 8} {
			xb := make([]float64, m.NCols*k)
			for i := range xb {
				xb[i] = x[i/k]
			}
			yb := make([]float64, m.NRows*k)
			bi := iters/k + 1
			scalarSec = stats.SecondsPerCall(kernelReps, bi, func() {
				kernels.ScalarCSRBlockRange(m, xb, yb, k, 0, m.NRows)
			})
			asmSec = stats.SecondsPerCall(kernelReps, bi, func() {
				kernels.CSRBlockRange(m, xb, yb, k, 0, m.NRows)
			})
			res.add(m, fmt.Sprintf("block%d", k), rate(scalarSec, float64(k)), rate(asmSec, float64(k)))
		}
	}

	return res, nil
}

// Gate is the regression gate: on hosts with SIMD dispatch, every asm
// body must be at least as fast as its oracle (within kernelGateSlack)
// on every row — an asm kernel that loses to the compiler is a bug,
// not a tradeoff. It reads wall-clock rates, so a loaded host can fail
// it; unit tests do not apply it.
func (r *KernelsResult) Gate() error {
	if r.ISA == "scalar" {
		// No assembly dispatched (noasm build or non-amd64 host): both
		// columns ran the same bodies, the gate is meaningless.
		return nil
	}
	for _, row := range r.Rows {
		if row.Asm < row.Scalar*kernelGateSlack {
			return fmt.Errorf("kernel regression: %s on %s runs %.2f Gflops %s vs %.2f scalar (%.2fx)",
				row.Kernel, row.Matrix, row.Asm, r.ISA, row.Scalar, row.Speedup)
		}
	}
	return nil
}

func (r *KernelsResult) add(m *matrix.CSR, kernel string, scalar, asm float64) {
	row := KernelRow{Matrix: m.Name, Kernel: kernel, NNZ: m.NNZ(), Scalar: scalar, Asm: asm}
	if scalar > 0 {
		row.Speedup = asm / scalar
	}
	r.Rows = append(r.Rows, row)
}

// Table renders the trajectory.
func (r *KernelsResult) Table() *report.Table {
	t := report.New(fmt.Sprintf("SIMD assembly kernels vs scalar oracles (single thread, isa=%s)", r.ISA),
		"matrix", "kernel", "nnz", "scalar Gflops", "asm Gflops", "speedup")
	var speedups []float64
	for _, row := range r.Rows {
		t.Add(row.Matrix, row.Kernel, report.F(float64(row.NNZ)),
			report.F(row.Scalar), report.F(row.Asm), report.Fx(row.Speedup))
		if row.Speedup > 0 {
			speedups = append(speedups, row.Speedup)
		}
	}
	if n := len(speedups); n > 0 {
		t.AddNote("geometric-mean speedup %.2fx over %d (matrix, kernel) pairs", stats.GeometricMean(speedups), n)
	}
	if r.ISA == "scalar" {
		t.AddNote("no SIMD dispatch on this build/host: both columns ran the pure-Go bodies")
	} else {
		t.AddNote("gate: every asm body must hold >= %.0f%% of its scalar oracle's rate", kernelGateSlack*100)
	}
	return t
}
