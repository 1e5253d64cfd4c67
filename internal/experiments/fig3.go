package experiments

import (
	"github.com/sparsekit/spmvtuner/internal/bounds"
	"github.com/sparsekit/spmvtuner/internal/classify"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/sim"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// Fig3Row is one matrix's baseline performance and per-class upper
// bounds in Gflop/s (Fig 3 on KNC).
type Fig3Row struct {
	Matrix  string
	Bounds  bounds.Bounds
	Classes classify.Set
}

// Fig3Result reproduces Fig 3.
type Fig3Result struct {
	Platform string
	Rows     []Fig3Row
}

// Fig3 measures the CSR baseline and every per-class upper bound for
// the suite on the KNC model, and reports the classes the
// profile-guided classifier derives from them.
func Fig3(cfg Config) (Fig3Result, error) {
	c := cfg.withDefaults()
	sel, err := c.selected("fig3", suite.Evaluation())
	if err != nil {
		return Fig3Result{}, err
	}
	e := sim.New(machine.KNC())
	pg := classify.NewProfileGuided()
	res := Fig3Result{Platform: "knc"}
	for _, r := range sel {
		m := r.Build(c.Scale)
		b := bounds.Measure(e, m)
		res.Rows = append(res.Rows, Fig3Row{Matrix: r.Name, Bounds: b, Classes: pg.Classify(b)})
		e.Forget(m)
	}
	return res, nil
}

// Table renders the result with an ASCII bar for the baseline against
// the format-independent peak.
func (r Fig3Result) Table() *report.Table {
	t := report.New("Fig 3: CSR performance and per-class upper bounds, Gflop/s ("+r.Platform+")",
		"matrix", "CSR", "ML", "IMB", "CMP", "MB", "Peak", "classes", "CSR/Peak")
	for _, row := range r.Rows {
		b := row.Bounds
		t.Add(row.Matrix,
			report.F(b.PCSR), report.F(b.PML), report.F(b.PIMB),
			report.F(b.PCMP), report.F(b.PMB), report.F(b.Ppeak),
			classString(row.Classes),
			report.Bar(b.PCSR, b.Ppeak, 16))
	}
	t.AddNote("each bound is the performance if its bottleneck were eliminated (Section III-B)")
	return t
}
