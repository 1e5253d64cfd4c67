package experiments

import (
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/stats"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// SellCSRow compares the row-wise CSR vector kernel against the
// SELL-C-σ chunked kernel for one suite matrix, both through the
// prepared persistent-pool engine.
type SellCSRow struct {
	Matrix  string
	NNZ     int
	Padding float64 // SELL padded/real element ratio
	CSRUs   float64 // per-op, prepared csr-vec8
	SellUs  float64 // per-op, prepared sellcs-c8
	Speedup float64 // CSRUs / SellUs
}

// SellCSResult holds the format comparison for the selected suite.
type SellCSResult struct {
	C    int
	Rows []SellCSRow
}

// SellCS runs the SELL-C-σ versus CSR comparison natively on the host:
// both kernels run through the same prepared engine, so the difference
// is purely the storage layout — column-padded sorted chunks versus
// row-wise compressed rows.
func SellCS(cfg Config) (SellCSResult, error) {
	c := cfg.withDefaults()
	sel, err := c.selected("sellcs", suite.Evaluation())
	if err != nil {
		return SellCSResult{}, err
	}
	e := native.New()
	defer e.Close()

	res := SellCSResult{C: formats.DefaultChunkHeight}
	for _, r := range sel {
		m := r.Build(c.Scale)
		x := make([]float64, m.NCols)
		y := make([]float64, m.NRows)
		for i := range x {
			x[i] = 1
		}
		iters := reuseIters(m.NNZ())

		csrK := e.Prepare(m, ex.Optim{Vectorize: true})
		csr := stats.SecondsPerCall(1, iters, func() { csrK.MulVec(x, y) })
		sellK := e.Prepare(m, ex.Optim{Format: ex.FormatSellCS, Vectorize: true})
		sell := stats.SecondsPerCall(1, iters, func() { sellK.MulVec(x, y) })

		row := SellCSRow{
			Matrix: m.Name,
			NNZ:    m.NNZ(),
			// Prepare already converted and memoized the structure the
			// kernel ran; read its geometry rather than recomputing.
			Padding: e.SellCSOf(m).PaddingRatio(),
			CSRUs:   csr * 1e6,
			SellUs:  sell * 1e6,
		}
		if sell > 0 {
			row.Speedup = csr / sell
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the comparison.
func (r SellCSResult) Table() *report.Table {
	t := report.New("SELL-C-σ vs row-wise CSR vector kernel (host, prepared engine)",
		"matrix", "nnz", "padding", "csr-vec8 us/op", "sellcs-c8 us/op", "speedup")
	var speedups []float64
	for _, row := range r.Rows {
		t.Add(row.Matrix, report.F(float64(row.NNZ)), report.Fx(row.Padding),
			report.F(row.CSRUs), report.F(row.SellUs), report.Fx(row.Speedup))
		if row.Speedup > 0 {
			speedups = append(speedups, row.Speedup)
		}
	}
	if n := len(speedups); n > 0 {
		t.AddNote("geometric-mean speedup %.2fx over %d matrices (C=%d, σ per matrix: min(%d, rows))",
			stats.GeometricMean(speedups), n, r.C, formats.DefaultSortWindowCap)
	}
	t.AddNote("padding is the SELL chunk-uniformity cost the σ sorting window shrinks")
	return t
}
