package serve

import (
	"fmt"
	"sync"

	"github.com/sparsekit/spmvtuner/internal/core"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// Kernel is the executable the server dispatches batches to: a
// prepared, concurrency-safe SpMV whose MulVecBatch runs a coalesced
// batch in one call (see native.Prepared.MulVecBatch for which plans
// block it). Both the facade's Tuned and
// the native engine's prepared kernels satisfy it.
type Kernel interface {
	MulVec(x, y []float64)
	MulVecBatch(xs, ys [][]float64)
}

// PrepInfo describes one kernel preparation.
type PrepInfo struct {
	// Bytes is the kernel's resident footprint, accounted against the
	// server's memory budget.
	Bytes int64
	// Warm reports a plan-store warm start: the preparation performed
	// zero classification and zero candidate-sweep measurements.
	Warm bool
	// Plan is the human-readable optimization summary.
	Plan string
	// Gflops is the rate recorded at tune time (measured on native
	// engines, modeled otherwise).
	Gflops float64
	// Threads is the width the prepared kernel runs at.
	Threads int
}

// Engine tunes matrices into kernels and releases their resources —
// the backend the server prepares through. The facade's Tuner adapts
// to it (sharing its plan store and worker pool); PipelineEngine is
// the in-module implementation the binary and the experiments use.
// Implementations must be safe for concurrent use.
type Engine interface {
	// Prepare returns a ready kernel for m, warm-starting from a plan
	// store when one is attached and already holds m's fingerprint.
	Prepare(m *matrix.CSR) (Kernel, PrepInfo, error)
	// Release frees m's prepared resources (converted formats, cached
	// kernels). Kernels already handed out stay usable.
	Release(m *matrix.CSR)
}

// PipelineEngine adapts a core.Pipeline to Engine, serializing the
// pipeline (which is not concurrency-safe) behind a mutex exactly as
// the facade's Tuner does. Attach a plan store to the pipeline before
// serving: it is what makes post-eviction re-preparation a warm start
// instead of a full re-tune.
type PipelineEngine struct {
	mu   sync.Mutex
	pipe *core.Pipeline
}

// NewPipelineEngine wraps a pipeline. The pipeline's executor must be
// a PreparedExecutor (native execution); analytic executors cannot
// serve traffic and fail at Prepare time.
func NewPipelineEngine(p *core.Pipeline) *PipelineEngine {
	return &PipelineEngine{pipe: p}
}

// Prepare implements Engine.
func (e *PipelineEngine) Prepare(m *matrix.CSR) (Kernel, PrepInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Resolve symmetry under the engine lock: the detection caches onto
	// the matrix, so concurrent preparations of the same matrix must
	// not both run it.
	m.SymmetryKind()
	pl, k, warm := e.pipe.Prepare(m)
	if k == nil {
		return nil, PrepInfo{}, fmt.Errorf("serve: executor %T cannot prepare kernels", e.pipe.Exec)
	}
	info := PrepInfo{Warm: warm, Plan: pl.Opt.String(), Gflops: pl.MeasuredGflops, Threads: k.Threads()}
	if info.Gflops == 0 {
		info.Gflops = pl.PredictedGflops
	}
	if mb, ok := k.(interface{ MemBytes() int64 }); ok {
		info.Bytes = mb.MemBytes()
	} else {
		info.Bytes = m.Bytes()
	}
	return k, info, nil
}

// Release implements Engine, forwarding to the executor's per-matrix
// release hook when it has one.
func (e *PipelineEngine) Release(m *matrix.CSR) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.pipe.Exec.(ex.Releaser); ok {
		r.Release(m)
	}
}
