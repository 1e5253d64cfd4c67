// Package ref provides the vendor-library comparators the paper
// benchmarks against (DESIGN.md, S2): a stand-in for the Intel MKL CSR
// kernel mkl_dcsrmv and for the MKL Inspector-Executor kernel
// mkl_sparse_d_mv. Both are well-tuned but non-adaptive (MKL) or
// one-shot adaptive (Inspector-Executor) CSR implementations, playing
// the same roles the closed-source originals play in Fig 7 and
// Table V.
package ref

import (
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/opt"
	"github.com/sparsekit/spmvtuner/internal/plan"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// MKL models the classic mkl_dcsrmv CSR kernel: fully vectorized,
// statically scheduled over equal row blocks, no matrix-adaptive
// behaviour, no preprocessing.
type MKL struct{}

// Name implements opt.Optimizer.
func (MKL) Name() string { return "mkl" }

// Plan implements opt.Optimizer.
func (MKL) Plan(_ ex.Executor, _ *matrix.CSR) plan.Plan {
	return plan.Plan{
		Optimizer: "mkl",
		Opt:       ex.Optim{Vectorize: true, Schedule: sched.StaticRows},
	}
}

// InspectorExecutor models mkl_sparse_d_mv with the inspector run: an
// analysis stage sweeps the matrix a few times, then builds an
// optimized executor (vectorized, unrolled, nnz-balanced). Its
// preprocessing cost is real and appears in Table V.
type InspectorExecutor struct{}

// inspectorPasses is the number of matrix sweeps the inspector
// performs.
const inspectorPasses = 3

// Name implements opt.Optimizer.
func (InspectorExecutor) Name() string { return "mkl-inspector" }

// Plan implements opt.Optimizer.
func (ie InspectorExecutor) Plan(e ex.Executor, m *matrix.CSR) plan.Plan {
	mdl := e.Machine()
	// Inspection sweeps the matrix inspectorPasses times and builds
	// the internal representation (one more pass), plus a fixed
	// autotuning stage.
	sweep := float64(m.Bytes()) / (mdl.StreamMainGBs * 1e9)
	pre := (inspectorPasses+1)*sweep + 4*opt.JITSeconds
	return plan.Plan{
		Optimizer:         ie.Name(),
		Opt:               ex.Optim{Vectorize: true, Unroll: true, Schedule: sched.StaticNNZ},
		PreprocessSeconds: pre,
	}
}
