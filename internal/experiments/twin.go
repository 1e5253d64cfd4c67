package experiments

import (
	"fmt"
	"math"

	"github.com/sparsekit/spmvtuner/internal/calib"
	"github.com/sparsekit/spmvtuner/internal/core"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/opt"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/sim"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// TwinRow compares the digital twin's analytic prediction against a
// native measurement for one suite matrix: both price the SAME plan,
// decided on the twin.
type TwinRow struct {
	Matrix          string  `json:"matrix"`
	NNZ             int     `json:"nnz"`
	Plan            string  `json:"plan"`
	PredictedGflops float64 `json:"predictedGflops"`
	MeasuredGflops  float64 `json:"measuredGflops"`
	RelErr          float64 `json:"relErr"`
}

// TwinResult is the cost-model accuracy report — Table IV's framing
// applied to the calibrated roofline model instead of the classifier.
type TwinResult struct {
	Machine       string  `json:"machine"`
	NumCPU        int     `json:"numCPU"`
	MainGBs       float64 `json:"mainGBs"`
	LLCGBs        float64 `json:"llcGBs"`
	PerCoreGBs    float64 `json:"perCoreGBs"`
	UsableThreads int     `json:"usableThreads"`
	Scale         float64 `json:"scale"`
	// MeanRelErr and MaxRelErr summarize |predicted-measured|/measured
	// across the suite; Threshold is the smoke gate the mean must stay
	// under.
	MeanRelErr float64   `json:"meanRelErr"`
	MaxRelErr  float64   `json:"maxRelErr"`
	Threshold  float64   `json:"threshold"`
	Rows       []TwinRow `json:"rows"`
}

// TwinErrThreshold is the smoke gate on the suite-mean relative
// prediction error. An analytic roofline model on a noisy shared host
// is good to tens of percent; a mean past this bound means the
// calibration or the cost model is broken, not merely imprecise.
const TwinErrThreshold = 0.75

// Twin calibrates the host live (probe, not persisted — the
// experiment must reflect the machine as it is right now), prices
// every suite matrix's twin-decided plan analytically, measures the
// same plan natively, and reports the relative error. Whether the mean
// error passes TwinErrThreshold is a wall-clock verdict, so Twin leaves
// it to Gate: `spmvbench -exp twin` applies it, which lets CI run this
// experiment as the cost-model smoke while unit tests stay
// deterministic.
func Twin(cfg Config) (*TwinResult, error) {
	c := cfg.withDefaults()
	sel, err := c.selected("twin", suite.Evaluation())
	if err != nil {
		return nil, err
	}

	base := machine.Host()
	cal := calib.Measure(native.HostProbes(), base)
	model := cal.Apply(base)
	twin := sim.New(model)
	nat := native.NewWithModel(model)
	defer nat.Close()
	nat.Iters = 5 // a few extra reps: the measurement side should not be the noise floor
	pipe := core.New(twin)

	res := &TwinResult{
		Machine:       model.Codename,
		NumCPU:        cal.NumCPU,
		MainGBs:       cal.MainGBs,
		LLCGBs:        cal.LLCGBs,
		PerCoreGBs:    cal.PerCoreGBs,
		UsableThreads: cal.UsableThreads,
		Scale:         c.Scale,
		Threshold:     TwinErrThreshold,
	}

	for _, r := range sel {
		m := r.Build(c.Scale)
		pl := pipe.PlanOnly(m)
		pred := opt.Evaluate(twin, m, pl).Gflops
		meas := opt.Evaluate(nat, m, pl).Gflops
		if meas <= 0 {
			return nil, fmt.Errorf("twin: %s measured %g Gflops", m.Name, meas)
		}
		row := TwinRow{
			Matrix:          m.Name,
			NNZ:             m.NNZ(),
			Plan:            pl.Opt.String(),
			PredictedGflops: pred,
			MeasuredGflops:  meas,
			RelErr:          math.Abs(pred-meas) / meas,
		}
		res.Rows = append(res.Rows, row)
		res.MeanRelErr += row.RelErr
		if row.RelErr > res.MaxRelErr {
			res.MaxRelErr = row.RelErr
		}
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("twin: no suite matrices selected")
	}
	res.MeanRelErr /= float64(len(res.Rows))
	return res, nil
}

// Gate is the accuracy gate: the suite-mean relative prediction error
// must stay within Threshold.
func (r *TwinResult) Gate() error {
	if r.MeanRelErr > r.Threshold {
		return fmt.Errorf("twin: mean prediction error %.0f%% exceeds the %.0f%% gate",
			100*r.MeanRelErr, 100*r.Threshold)
	}
	return nil
}

// Table renders the accuracy report.
func (r *TwinResult) Table() *report.Table {
	t := report.New(fmt.Sprintf("Digital twin accuracy: predicted vs measured Gflops (%s, %.0f GB/s main, %.0f GB/s LLC, %d usable threads, scale %.2g)",
		r.Machine, r.MainGBs, r.LLCGBs, r.UsableThreads, r.Scale),
		"matrix", "nnz", "plan", "predicted", "measured", "rel err")
	for _, row := range r.Rows {
		t.Add(row.Matrix, fmt.Sprintf("%d", row.NNZ), row.Plan,
			report.F(row.PredictedGflops), report.F(row.MeasuredGflops),
			fmt.Sprintf("%.0f%%", 100*row.RelErr))
	}
	t.AddNote("mean relative error %.0f%% (max %.0f%%) across %d matrices; smoke gate %.0f%%",
		100*r.MeanRelErr, 100*r.MaxRelErr, len(r.Rows), 100*r.Threshold)
	t.AddNote("both columns price the same twin-decided plan: predicted on the calibrated roofline model, measured on the native engine")
	return t
}
