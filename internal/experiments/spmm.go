package experiments

import (
	"math"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/stats"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// SpMMRow compares the per-vector loop against the batch path for one
// (matrix, batch width) pair on the CSR gather binding, both through
// the prepared persistent-pool engine. The batch path streams the
// matrix once per group of 8, then once for a group of 4, and runs
// the vectors left over one by one: k = 4 and 8 are one group, k = 5
// a group plus one per-vector remainder, k = 12 a group of 8 and one
// of 4.
type SpMMRow struct {
	Matrix  string
	NNZ     int
	K       int     // batch width
	LoopUs  float64 // per-vector microseconds, per-vector MulVec loop
	BlockUs float64 // per-vector microseconds, MulVecBatch
	Speedup float64 // LoopUs / BlockUs
	MaxDiff float64 // max |batch - per-vector| relative difference
}

// SpMMResult holds the blocked-SpMM comparison for the selected suite.
type SpMMResult struct {
	Rows []SpMMRow
}

// SpMM runs the batch comparison natively on the host.
func SpMM(cfg Config) (SpMMResult, error) {
	c := cfg.withDefaults()
	sel, err := c.selected("spmm", suite.Evaluation())
	if err != nil {
		return SpMMResult{}, err
	}
	e := native.New()
	defer e.Close()

	var res SpMMResult
	for _, r := range sel {
		m := r.Build(c.Scale)
		o := ex.Optim{Vectorize: true}
		p := e.Prepare(m, o)
		iters := reuseIters(m.NNZ())

		for _, k := range []int{4, 5, 8, 12} {
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

			// Batch: one matrix stream per group of 8 or 4 vectors.
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
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Table renders the comparison.
func (r SpMMResult) Table() *report.Table {
	t := report.New("Batch SpMM vs per-vector loop (host, prepared engine; per-vector us)",
		"matrix", "nnz", "k", "loop us/vec", "batch us/vec", "speedup", "maxdiff")
	var speedups []float64
	for _, row := range r.Rows {
		t.Add(row.Matrix, report.F(float64(row.NNZ)), report.F(float64(row.K)),
			report.F(row.LoopUs), report.F(row.BlockUs), report.Fx(row.Speedup),
			report.F(row.MaxDiff))
		if row.Speedup > 0 && row.K == 8 {
			speedups = append(speedups, row.Speedup)
		}
	}
	if n := len(speedups); n > 0 {
		t.AddNote("geometric-mean k=8 speedup %.2fx over %d matrices", stats.GeometricMean(speedups), n)
	}
	t.AddNote("only the CSR float64 binding blocks, in groups of 8 then 4; narrower batches run per vector")
	return t
}
