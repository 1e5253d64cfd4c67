package experiments

import (
	"math"

	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/opt"
	"github.com/sparsekit/spmvtuner/internal/ref"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/sim"
	"github.com/sparsekit/spmvtuner/internal/solver"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// Table5Row is the amortization summary for one optimizer: the
// minimum solver iterations required to beat MKL CSR, summarized over
// the suite (Table V).
type Table5Row struct {
	Optimizer string
	Best      float64
	Avg       float64
	Worst     float64
	// NeverAmortizes counts suite matrices where the optimizer never
	// beats MKL (excluded from Best/Avg/Worst, as the paper's finite
	// entries imply).
	NeverAmortizes int
}

// Table5Result reproduces Table V on the KNL model.
type Table5Result struct {
	Platform string
	Rows     []Table5Row
}

// Table5 computes, for every optimizer and suite matrix,
// N_iters,min = t_pre / (t_mkl - t_opt) and reports best / average /
// worst per optimizer.
func Table5(cfg Config) (Table5Result, error) {
	c := cfg.withDefaults()
	sel, err := c.selected("table5", suite.Evaluation())
	if err != nil {
		return Table5Result{}, err
	}
	mdl := machine.KNL()
	tc := Train(mdl, c)
	e := sim.New(mdl)
	prof, feat, _ := optimizersFor(mdl, tc)

	optimizers := []opt.Optimizer{
		opt.TrivialSingle{},
		opt.TrivialCombined{},
		prof,
		feat,
		ref.InspectorExecutor{},
	}
	mkl := ref.MKL{}

	type acc struct {
		iters []float64
		never int
	}
	accs := make([]acc, len(optimizers))

	for _, r := range sel {
		m := r.Build(c.Scale)
		tMKL := opt.Evaluate(e, m, mkl.Plan(e, m)).Seconds
		for i, o := range optimizers {
			p := o.Plan(e, m)
			tOpt := opt.Evaluate(e, m, p).Seconds
			n := solver.AmortizationIters(p.PreprocessSeconds, tMKL, tOpt)
			if math.IsInf(n, 1) {
				accs[i].never++
			} else {
				accs[i].iters = append(accs[i].iters, n)
			}
		}
		e.Forget(m)
	}

	res := Table5Result{Platform: mdl.Codename}
	for i, o := range optimizers {
		row := Table5Row{Optimizer: o.Name(), NeverAmortizes: accs[i].never}
		if len(accs[i].iters) > 0 {
			best, worst, sum := math.Inf(1), 0.0, 0.0
			for _, n := range accs[i].iters {
				if n < best {
					best = n
				}
				if n > worst {
					worst = n
				}
				sum += n
			}
			row.Best, row.Worst = best, worst
			row.Avg = sum / float64(len(accs[i].iters))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the result.
func (r Table5Result) Table() *report.Table {
	t := report.New("Table V: min solver iterations to amortize optimizer overhead ("+r.Platform+")",
		"optimizer", "best", "avg", "worst", "never-amortizes")
	for _, row := range r.Rows {
		t.Add(row.Optimizer,
			report.F(math.Ceil(row.Best)), report.F(math.Ceil(row.Avg)),
			report.F(math.Ceil(row.Worst)), report.F(float64(row.NeverAmortizes)))
	}
	t.AddNote("N_iters,min = t_pre / (t_mkl - t_optimizer), Section IV-D")
	t.AddNote("paper (KNL): trivial-single 455/910/8016, trivial-combined 1992/3782/37111,")
	t.AddNote("             profile-guided 145/267/3145, feature-guided 27/60/567, MKL-IE 28/336/1229")
	return t
}
