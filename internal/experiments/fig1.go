package experiments

import (
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/sched"
	"github.com/sparsekit/spmvtuner/internal/sim"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// Fig1Row is one matrix's speedups under blindly applied single
// optimizations (Fig 1: software prefetching, vectorization, auto
// scheduling on KNC).
type Fig1Row struct {
	Matrix   string
	Prefetch float64
	Vector   float64
	AutoSch  float64
}

// Fig1Result reproduces Fig 1.
type Fig1Result struct {
	Platform string
	Rows     []Fig1Row
}

// Fig1 measures the speedup (or slowdown) of each single software
// optimization over the baseline CSR kernel on the KNC model, for
// every suite matrix.
func Fig1(cfg Config) (Fig1Result, error) {
	c := cfg.withDefaults()
	sel, err := c.selected("fig1", suite.Evaluation())
	if err != nil {
		return Fig1Result{}, err
	}
	e := sim.New(machine.KNC())
	res := Fig1Result{Platform: "knc"}
	for _, r := range sel {
		m := r.Build(c.Scale)
		base := e.Run(ex.Config{Matrix: m}).Seconds
		row := Fig1Row{Matrix: r.Name}
		row.Prefetch = base / e.Run(ex.Config{Matrix: m, Opt: ex.Optim{Prefetch: true}}).Seconds
		row.Vector = base / e.Run(ex.Config{Matrix: m, Opt: ex.Optim{Vectorize: true}}).Seconds
		row.AutoSch = base / e.Run(ex.Config{Matrix: m, Opt: ex.Optim{Schedule: sched.Auto}}).Seconds
		res.Rows = append(res.Rows, row)
		e.Forget(m)
	}
	return res, nil
}

// Table renders the result.
func (r Fig1Result) Table() *report.Table {
	t := report.New("Fig 1: speedup of blindly applied optimizations over CSR ("+r.Platform+")",
		"matrix", "prefetch", "vectorization", "auto-sched")
	var hurtP, hurtV, hurtA, helpP, helpV, helpA int
	for _, row := range r.Rows {
		t.Add(row.Matrix, report.Fx(row.Prefetch), report.Fx(row.Vector), report.Fx(row.AutoSch))
		count := func(v float64, hurt, help *int) {
			if v < 0.99 {
				*hurt++
			}
			if v > 1.01 {
				*help++
			}
		}
		count(row.Prefetch, &hurtP, &helpP)
		count(row.Vector, &hurtV, &helpV)
		count(row.AutoSch, &hurtA, &helpA)
	}
	t.AddNote("helped/hurt: prefetch %d/%d, vectorization %d/%d, auto-sched %d/%d (of %d matrices)",
		helpP, hurtP, helpV, hurtV, helpA, hurtA, len(r.Rows))
	t.AddNote("paper's point: every optimization speeds up some matrices and slows down others")
	return t
}
