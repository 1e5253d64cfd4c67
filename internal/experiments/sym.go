package experiments

import (
	"fmt"
	"math"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/sim"
	"github.com/sparsekit/spmvtuner/internal/stats"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// SymRow compares the expanded-CSR reference path against the
// symmetric SSS kernel for one symmetric suite matrix, both through
// the prepared persistent-pool engine.
type SymRow struct {
	Matrix  string
	NNZ     int     // assembled (mirrored) stored elements
	CSRMB   float64 // matrix stream of the CSR kernel, MiB
	SSSMB   float64 // matrix stream of the SSS kernel, MiB
	BytesX  float64 // CSRMB / SSSMB — the compression the format buys
	CSRUs   float64 // per-op, prepared csr
	SSSUs   float64 // per-op, prepared sss
	Speedup float64 // CSRUs / SSSUs
	ModelX  float64 // cost-model predicted speedup on the host model
	MaxDiff float64 // max relative difference vs the reference result
	// WindowCells is the conflict-window cells the SSS kernel folds
	// into y per multiply (native.Prepared.ReduceCells).
	WindowCells int
}

// SymResult holds the symmetric-storage comparison.
type SymResult struct {
	Rows []SymRow
}

// symTol is the relative difference from the expanded-CSR reference
// past which the symmetric cross-check fails.
const symTol = 1e-12

// Sym runs the symmetric-storage cross-check natively on the host:
// the SSS kernel must agree with the expanded-CSR reference within
// symTol on every row, or Sym returns an error alongside the result.
// The reported bytes/perf delta shows what halving the matrix stream
// buys against the reduction, whose size is the window-cells column.
// The cost model's prediction sits beside each measurement — it is
// what the oracle consults to decide when the conflict-window fold
// eats the bandwidth win (wide-profile matrices at high thread
// counts).
func Sym(cfg Config) (SymResult, error) {
	c := cfg.withDefaults()
	e := native.New()
	defer e.Close()
	model := sim.New(machine.Host())

	sel, err := c.selected("sym", suite.Symmetric())
	if err != nil {
		return SymResult{}, err
	}
	var res SymResult
	for _, r := range sel {
		m := r.Build(c.Scale)
		x := make([]float64, m.NCols)
		for i := range x {
			x[i] = 1 + 0.25*float64(i%7)
		}
		want := make([]float64, m.NRows)
		m.MulVec(x, want)
		iters := reuseIters(m.NNZ())

		y := make([]float64, m.NRows)
		csrK := e.Prepare(m, ex.Optim{})
		csr := stats.SecondsPerCall(1, iters, func() { csrK.MulVec(x, y) })
		sssK := e.Prepare(m, ex.Optim{Format: ex.FormatSSS}).(*native.Prepared)
		sss := stats.SecondsPerCall(1, iters, func() { sssK.MulVec(x, y) })

		var maxDiff float64
		for i := range want {
			d := math.Abs(y[i]-want[i]) / (1 + math.Abs(want[i]))
			if d > maxDiff {
				maxDiff = d
			}
		}

		sssBytes := e.SSSOf(m).Bytes()
		row := SymRow{
			Matrix:  m.Name,
			NNZ:     m.NNZ(),
			CSRMB:   float64(m.Bytes()) / (1 << 20),
			SSSMB:   float64(sssBytes) / (1 << 20),
			CSRUs:   csr * 1e6,
			SSSUs:   sss * 1e6,
			MaxDiff: maxDiff,

			WindowCells: sssK.ReduceCells(),
		}
		if !(maxDiff <= symTol) && err == nil {
			err = fmt.Errorf("sym: %s: SSS differs from the reference by %.3g (tolerance %.0g)", m.Name, maxDiff, symTol)
		}
		if sssBytes > 0 {
			row.BytesX = float64(m.Bytes()) / float64(sssBytes)
		}
		if sss > 0 {
			row.Speedup = csr / sss
		}
		base := model.Run(ex.Config{Matrix: m}).Seconds
		pred := model.Run(ex.Config{Matrix: m, Opt: ex.Optim{Format: ex.FormatSSS}}).Seconds
		if pred > 0 {
			row.ModelX = base / pred
		}
		res.Rows = append(res.Rows, row)
	}
	return res, err
}

// Table renders the comparison.
func (r SymResult) Table() *report.Table {
	t := report.New("Symmetric SSS storage vs expanded CSR (host, prepared engine)",
		"matrix", "nnz", "csr MiB", "sss MiB", "bytes-x", "csr us/op", "sss us/op", "speedup", "model-x", "window cells", "maxdiff")
	for _, row := range r.Rows {
		t.Add(row.Matrix, report.F(float64(row.NNZ)), report.F(row.CSRMB), report.F(row.SSSMB),
			report.Fx(row.BytesX), report.F(row.CSRUs), report.F(row.SSSUs),
			report.Fx(row.Speedup), report.Fx(row.ModelX), report.F(float64(row.WindowCells)), report.F(row.MaxDiff))
	}
	t.AddNote("SSS stores the lower triangle + diagonal: bytes-x approaches 2 as rows densify")
	t.AddNote("a mirrored contribution below its thread's rows lands in that thread's conflict window;")
	t.AddNote("window cells is the sum over threads folded into y serially per multiply (one bandwidth")
	t.AddNote("per thread on a banded matrix); the cost model prices it, so the oracle only proposes")
	t.AddNote("SSS when the halved stream wins")
	return t
}
