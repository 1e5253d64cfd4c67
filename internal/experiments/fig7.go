package experiments

import (
	"fmt"

	"github.com/sparsekit/spmvtuner/internal/classify"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/opt"
	"github.com/sparsekit/spmvtuner/internal/ref"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/sim"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// Fig7Row is one matrix's performance under every competitor
// (Gflop/s) plus the detected classes.
type Fig7Row struct {
	Matrix   string
	Classes  classify.Set
	MKL      float64
	IE       float64 // 0 on KNC (MKL Inspector-Executor unavailable there)
	Baseline float64
	Oracle   float64
	Prof     float64
	Feat     float64
}

// Fig7Result reproduces one panel of Fig 7.
type Fig7Result struct {
	Platform string
	Rows     []Fig7Row
	// Average per-matrix speedups over MKL CSR, as the paper quotes.
	AvgProfVsMKL float64
	AvgFeatVsMKL float64
	AvgIEVsMKL   float64
	// Classifier training diagnostics.
	TrainCV float64
}

// Fig7 runs the full performance landscape on one platform
// ("knc", "knl" or "bdw").
func Fig7(platform string, cfg Config) (Fig7Result, error) {
	c := cfg.withDefaults()
	mdl, err := machine.ByCodename(platform)
	if err != nil {
		return Fig7Result{}, err
	}
	sel, err := c.selected("fig7", suite.Evaluation())
	if err != nil {
		return Fig7Result{}, err
	}
	tc := Train(mdl, c)
	e := sim.New(mdl)
	prof, feat, oracle := optimizersFor(mdl, tc)
	mkl := ref.MKL{}
	ie := ref.InspectorExecutor{}
	withIE := mdl.Codename != "knc" // Fig 7: "MKL Inspector-Executor is not available on KNC"

	res := Fig7Result{Platform: mdl.Codename, TrainCV: tc.CV.ExactMatchRatio}
	var sProf, sFeat, sIE []float64
	for _, r := range sel {
		m := r.Build(c.Scale)
		row := Fig7Row{Matrix: r.Name}

		row.MKL = gflops(e, m, mkl.Plan(e, m))
		if withIE {
			row.IE = gflops(e, m, ie.Plan(e, m))
		}
		row.Baseline = gflops(e, m, opt.Baseline{}.Plan(e, m))
		pp := prof.Plan(e, m)
		row.Classes = pp.Classes
		row.Prof = gflops(e, m, pp)
		row.Feat = gflops(e, m, feat.Plan(e, m))
		row.Oracle = gflops(e, m, oracle.Plan(e, m))

		if row.MKL > 0 {
			sProf = append(sProf, row.Prof/row.MKL)
			sFeat = append(sFeat, row.Feat/row.MKL)
			if withIE {
				sIE = append(sIE, row.IE/row.MKL)
			}
		}
		res.Rows = append(res.Rows, row)
		e.Forget(m)
	}
	res.AvgProfVsMKL = meanOfRatios(sProf)
	res.AvgFeatVsMKL = meanOfRatios(sFeat)
	res.AvgIEVsMKL = meanOfRatios(sIE)
	return res, nil
}

// Table renders the panel.
func (r Fig7Result) Table() *report.Table {
	t := report.New(fmt.Sprintf("Fig 7 (%s): SpMV performance landscape, Gflop/s", r.Platform),
		"matrix", "classes", "MKL", "MKL-IE", "baseline", "oracle", "prof", "feat")
	for _, row := range r.Rows {
		ie := "-"
		if row.IE > 0 {
			ie = report.F(row.IE)
		}
		t.Add(row.Matrix, classString(row.Classes),
			report.F(row.MKL), ie, report.F(row.Baseline),
			report.F(row.Oracle), report.F(row.Prof), report.F(row.Feat))
	}
	t.AddNote("average speedup vs MKL: prof %s, feat %s, MKL-IE %s",
		report.Fx(r.AvgProfVsMKL), report.Fx(r.AvgFeatVsMKL), report.Fx(r.AvgIEVsMKL))
	switch r.Platform {
	case "knc":
		t.AddNote("paper: prof 2.72x, feat 2.63x over MKL CSR")
	case "knl":
		t.AddNote("paper: prof 6.73x, feat 6.48x, MKL-IE 4.89x over MKL CSR")
	case "bdw":
		t.AddNote("paper: prof 2.02x, feat 1.86x, MKL-IE 1.49x over MKL CSR")
	}
	return t
}
