package experiments

import (
	"math"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/opt"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/sim"
	"github.com/sparsekit/spmvtuner/internal/stats"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// SpMMRow compares the per-vector loop against the blocked multi-RHS
// path for one (matrix, block width) pair, both through the prepared
// persistent-pool engine. Blocking streams the matrix once per block
// of K vectors instead of once per vector, so on bandwidth-bound
// matrices the per-vector time should approach 1/K of the loop for the
// matrix-stream share of the traffic.
type SpMMRow struct {
	Matrix  string
	NNZ     int
	K       int     // block width
	LoopUs  float64 // per-vector microseconds, per-vector MulVec loop
	BlockUs float64 // per-vector microseconds, blocked MulVecBatch
	Speedup float64 // LoopUs / BlockUs
	ModelX  float64 // cost-model predicted speedup on the host model
	MaxDiff float64 // max |blocked - per-vector| relative difference
}

// SpMMResult holds the blocked-SpMM comparison for the selected suite.
type SpMMResult struct {
	Rows []SpMMRow
}

// SpMM runs the blocked multi-RHS comparison natively on the host and
// sets the cost model's prediction beside each measurement: the
// modeled bytes-per-k intensity lift is exactly what the optimizer
// consults (opt.BestBlockWidth) to decide when blocking pays.
func SpMM(cfg Config) (SpMMResult, error) {
	c := cfg.withDefaults()
	sel, err := c.selected("spmm", suite.Evaluation())
	if err != nil {
		return SpMMResult{}, err
	}
	e := native.New()
	defer e.Close()
	model := sim.New(machine.Host())

	var res SpMMResult
	for _, r := range sel {
		m := r.Build(c.Scale)
		o := ex.Optim{Vectorize: true}
		p := e.Prepare(m, o)
		iters := reuseIters(m.NNZ())

		for _, k := range []int{2, 4, 8} {
			xs := make([][]float64, k)
			ys := make([][]float64, k)
			want := make([][]float64, k)
			for l := 0; l < k; l++ {
				xs[l] = make([]float64, m.NCols)
				for i := range xs[l] {
					xs[l][i] = 1 + 0.25*float64((i+l)%7)
				}
				ys[l] = make([]float64, m.NRows)
				want[l] = make([]float64, m.NRows)
			}

			for l := 0; l < k; l++ {
				p.MulVec(xs[l], want[l]) // reference
			}
			// Per-vector loop: k single-vector multiplies per batch.
			loop := stats.SecondsPerCall(1, iters, func() {
				for l := 0; l < k; l++ {
					p.MulVec(xs[l], ys[l])
				}
			}) / float64(k)

			// Blocked: one matrix stream per block of k vectors.
			blocked := stats.SecondsPerCall(1, iters, func() { p.MulVecBatch(xs, ys) }) / float64(k)

			var maxDiff float64
			for l := 0; l < k; l++ {
				for i := range want[l] {
					d := math.Abs(ys[l][i]-want[l][i]) / (1 + math.Abs(want[l][i]))
					if d > maxDiff {
						maxDiff = d
					}
				}
			}

			bo := o
			bo.BlockWidth = k
			modelBase := model.Run(ex.Config{Matrix: m, Opt: o}).Seconds
			modelBlocked := model.Run(ex.Config{Matrix: m, Opt: bo}).Seconds

			row := SpMMRow{
				Matrix:  m.Name,
				NNZ:     m.NNZ(),
				K:       k,
				LoopUs:  loop * 1e6,
				BlockUs: blocked * 1e6,
				MaxDiff: maxDiff,
			}
			if blocked > 0 {
				row.Speedup = loop / blocked
			}
			if modelBlocked > 0 {
				row.ModelX = modelBase / modelBlocked
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Table renders the comparison.
func (r SpMMResult) Table() *report.Table {
	t := report.New("Blocked SpMM vs per-vector loop (host, prepared engine; per-vector us)",
		"matrix", "nnz", "k", "loop us/vec", "blocked us/vec", "speedup", "model-x", "maxdiff")
	var speedups []float64
	for _, row := range r.Rows {
		t.Add(row.Matrix, report.F(float64(row.NNZ)), report.F(float64(row.K)),
			report.F(row.LoopUs), report.F(row.BlockUs), report.Fx(row.Speedup),
			report.Fx(row.ModelX), report.F(row.MaxDiff))
		if row.Speedup > 0 && row.K == 8 {
			speedups = append(speedups, row.Speedup)
		}
	}
	if n := len(speedups); n > 0 {
		t.AddNote("geometric-mean k=8 speedup %.2fx over %d matrices", stats.GeometricMean(speedups), n)
	}
	t.AddNote("blocking widths swept by the optimizer: %v (opt.BestBlockWidth)", opt.BlockWidths())
	t.AddNote("the matrix streams once per block of k vectors; per-vector matrix traffic drops by 1/k")
	return t
}
