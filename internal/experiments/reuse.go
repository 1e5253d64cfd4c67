package experiments

import (
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/stats"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// ReuseRow compares the two native execution paths for one suite
// matrix: rebuilding the plan and spawning goroutines on every multiply
// versus dispatching a prepared kernel to the persistent worker pool.
type ReuseRow struct {
	Matrix   string
	NNZ      int
	Opt      string
	OnceUs   float64 // per-op, rebuild-every-call path
	ReusedUs float64 // per-op, prepared persistent-pool path
	Speedup  float64
}

// ReuseResult holds the one-shot vs prepared comparison for the
// selected suite.
type ReuseResult struct {
	Rows []ReuseRow
}

// reuseIters sizes the measurement loop so small matrices average away
// scheduler noise without making large ones slow.
func reuseIters(nnz int) int {
	it := 2_000_000 / (nnz + 1)
	if it < 5 {
		it = 5
	}
	if it > 200 {
		it = 200
	}
	return it
}

// Reuse runs the steady-state engine comparison natively on the host:
// the overhead the persistent engine removes is exactly the
// orchestration cost the paper's Section IV-D amortization analysis
// charges to every multiply.
func Reuse(cfg Config) (ReuseResult, error) {
	c := cfg.withDefaults()
	sel, err := c.selected("reuse", suite.Evaluation())
	if err != nil {
		return ReuseResult{}, err
	}
	e := native.New()
	defer e.Close()

	var res ReuseResult
	for _, r := range sel {
		m := r.Build(c.Scale)
		// A representative optimized configuration; the point is the
		// execution path, not the tuning decision.
		o := ex.Optim{Vectorize: true}
		x := make([]float64, m.NCols)
		y := make([]float64, m.NRows)
		for i := range x {
			x[i] = 1
		}
		iters := reuseIters(m.NNZ())

		// Each path's untimed first call warms its caches.
		once := stats.SecondsPerCall(1, iters, func() { e.MulVecOnce(m, o, x, y) })
		p := e.Prepare(m, o)
		reused := stats.SecondsPerCall(1, iters, func() { p.MulVec(x, y) })

		row := ReuseRow{
			Matrix:   m.Name,
			NNZ:      m.NNZ(),
			Opt:      o.String(),
			OnceUs:   once * 1e6,
			ReusedUs: reused * 1e6,
		}
		if reused > 0 {
			row.Speedup = once / reused
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the comparison.
func (r ReuseResult) Table() *report.Table {
	t := report.New("Engine: rebuild-every-call vs prepared persistent-pool SpMV (host)",
		"matrix", "nnz", "opt", "oneshot us/op", "prepared us/op", "speedup")
	var speedups []float64
	for _, row := range r.Rows {
		t.Add(row.Matrix, report.F(float64(row.NNZ)), row.Opt,
			report.F(row.OnceUs), report.F(row.ReusedUs), report.Fx(row.Speedup))
		if row.Speedup > 0 {
			speedups = append(speedups, row.Speedup)
		}
	}
	if n := len(speedups); n > 0 {
		t.AddNote("geometric-mean speedup %.2fx over %d matrices", stats.GeometricMean(speedups), n)
	}
	t.AddNote("prepared kernels do zero planning work and zero allocations per multiply")
	return t
}
