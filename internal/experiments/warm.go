package experiments

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"github.com/sparsekit/spmvtuner/internal/classify"
	"github.com/sparsekit/spmvtuner/internal/core"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/features"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/ml"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/planstore"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// countingExecutor shims a prepared executor and counts Run
// invocations — every classification micro-benchmark and every
// candidate-sweep measurement goes through Run, so the counter is the
// experiment's proof that a warm start performed zero of either.
type countingExecutor struct {
	ex.PreparedExecutor
	runs int
}

func (c *countingExecutor) Run(cfg ex.Config) ex.Result {
	c.runs++
	return c.PreparedExecutor.Run(cfg)
}

// WarmRow reports cold-vs-warm tuning for one suite matrix: the
// latency of each path, the executor measurements each performed, and
// whether the fresh-process (on-disk) warm start reproduced the cold
// decision exactly.
type WarmRow struct {
	Matrix    string
	NNZ       int
	Plan      string
	ColdMs    float64
	WarmMs    float64
	FreshMs   float64 // fresh store handle + fresh executor: the process-restart path
	ColdRuns  int
	WarmRuns  int
	FreshRuns int
	Speedup   float64
	PlanEqual bool
}

// WarmResult holds the cold/warm comparison.
type WarmResult struct {
	Rows []WarmRow
}

// Warm measures the plan store's amortization natively on the host:
// each suite matrix is tuned cold (classify + sweep + measure +
// store), then warm in-process (memory front), then warm through a
// fresh store handle and a fresh executor — the process-restart
// shape. The warm paths are asserted, not just reported: a warm tune
// that performs any executor measurement, misses the store, or
// produces a different plan is an error, which is what lets CI run
// this experiment as the warm-start smoke.
func Warm(cfg Config) (*WarmResult, error) {
	c := cfg.withDefaults()
	dir, err := os.MkdirTemp("", "spmv-planstore-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e1 := &countingExecutor{PreparedExecutor: native.New()}
	defer e1.Close()
	e2 := &countingExecutor{PreparedExecutor: native.New()}
	defer e2.Close()

	sel, err := c.selected("warm", suite.Evaluation())
	if err != nil {
		return nil, err
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("warm: no matrices selected")
	}

	var res WarmResult
	for _, r := range sel {
		m := r.Build(c.Scale)

		store, err := planstore.Open(dir, planstore.DefaultCapacity)
		if err != nil {
			return nil, err
		}
		pipe := core.New(e1)
		pipe.Store = store

		m.SymmetryKind() // as the facade does at Tune time
		start := time.Now()
		coldPlan, coldK, hit := pipe.Prepare(m)
		coldMs := time.Since(start).Seconds() * 1e3
		coldRuns := e1.runs
		e1.runs = 0
		if hit || coldK == nil {
			return nil, fmt.Errorf("warm: %s: cold tune hit=%v kernel=%v", m.Name, hit, coldK != nil)
		}

		start = time.Now()
		warmPlan, warmK, hit := pipe.Prepare(m)
		warmMs := time.Since(start).Seconds() * 1e3
		warmRuns := e1.runs
		e1.runs = 0
		if !hit || warmK == nil {
			return nil, fmt.Errorf("warm: %s: in-process warm tune missed the store", m.Name)
		}
		if warmRuns != 0 {
			return nil, fmt.Errorf("warm: %s: in-process warm tune performed %d executor measurements", m.Name, warmRuns)
		}

		// Process restart: a fresh store handle over the same directory
		// and a fresh executor. Only the on-disk plan can warm this.
		if err := store.Close(); err != nil {
			return nil, err
		}
		store2, err := planstore.Open(dir, planstore.DefaultCapacity)
		if err != nil {
			return nil, err
		}
		pipe2 := core.New(e2)
		pipe2.Store = store2
		start = time.Now()
		freshPlan, freshK, hit := pipe2.Prepare(m)
		freshMs := time.Since(start).Seconds() * 1e3
		freshRuns := e2.runs
		e2.runs = 0
		if !hit || freshK == nil {
			return nil, fmt.Errorf("warm: %s: fresh-process warm tune missed the on-disk store", m.Name)
		}
		if freshRuns != 0 {
			return nil, fmt.Errorf("warm: %s: fresh-process warm tune performed %d executor measurements", m.Name, freshRuns)
		}
		equal := reflect.DeepEqual(coldPlan, warmPlan) && reflect.DeepEqual(coldPlan, freshPlan)
		if !equal {
			return nil, fmt.Errorf("warm: %s: warm plan differs from cold plan", m.Name)
		}
		if err := store2.Close(); err != nil {
			return nil, err
		}

		row := WarmRow{
			Matrix:    m.Name,
			NNZ:       m.NNZ(),
			Plan:      coldPlan.Opt.String(),
			ColdMs:    coldMs,
			WarmMs:    warmMs,
			FreshMs:   freshMs,
			ColdRuns:  coldRuns,
			WarmRuns:  warmRuns,
			FreshRuns: freshRuns,
			PlanEqual: equal,
		}
		if warmMs > 0 {
			row.Speedup = coldMs / warmMs
		}
		res.Rows = append(res.Rows, row)
	}
	if err := warmReducedPrecision(&res); err != nil {
		return nil, err
	}
	return &res, nil
}

// warmReducedPrecision asserts the mixed-precision warm-start path: a
// pipeline whose classifier deterministically selects an f32 plan (a
// constant-MB tree plus an accuracy budget) tunes cold, then a fresh
// store handle and a fresh executor must warm-hit the stored reduced
// plan with zero new measurements — and the plan must still carry f32
// after the on-disk round trip. This is the proof that a reduced plan
// shipped to another process re-prepares without re-tuning.
func warmReducedPrecision(res *WarmResult) error {
	dir, err := os.MkdirTemp("", "spmv-planstore-f32-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	names := features.ONNZSubset()
	labels := classify.NewSet(classify.MB).Labels()
	ds, err := ml.NewDataset([]ml.Sample{
		{X: make([]float64, len(names)), Y: labels},
		{X: make([]float64, len(names)), Y: labels},
	})
	if err != nil {
		return err
	}
	tree := ml.Fit(ds, ml.TreeParams{})

	m := gen.Banded(120000, 12, 1.0, 11)
	pipeline := func(e ex.Executor, s *planstore.Store) *core.Pipeline {
		p := core.New(e)
		p.Mode = core.FeatureGuided
		p.Tree = tree
		p.TreeFeatures = names
		p.AccuracyBudget = 1e-6
		p.Store = s
		return p
	}

	e1 := &countingExecutor{PreparedExecutor: native.New()}
	defer e1.Close()
	store, err := planstore.Open(dir, planstore.DefaultCapacity)
	if err != nil {
		return err
	}
	start := time.Now()
	coldPlan, _, hit := pipeline(e1, store).Prepare(m)
	coldMs := time.Since(start).Seconds() * 1e3
	coldRuns := e1.runs
	if hit {
		return fmt.Errorf("warm: f32: cold tune claims warm")
	}
	if got := coldPlan.Opt.EffectivePrecision(); got != ex.PrecF32 {
		return fmt.Errorf("warm: f32: budgeted MB plan carries precision %s, want f32", got)
	}
	if err := store.Close(); err != nil {
		return err
	}

	e2 := &countingExecutor{PreparedExecutor: native.New()}
	defer e2.Close()
	store2, err := planstore.Open(dir, planstore.DefaultCapacity)
	if err != nil {
		return err
	}
	start = time.Now()
	freshPlan, freshK, hit := pipeline(e2, store2).Prepare(m)
	freshMs := time.Since(start).Seconds() * 1e3
	if !hit || freshK == nil {
		return fmt.Errorf("warm: f32: fresh-process warm tune missed the on-disk reduced plan")
	}
	if e2.runs != 0 {
		return fmt.Errorf("warm: f32: fresh-process warm tune performed %d executor measurements", e2.runs)
	}
	if !reflect.DeepEqual(coldPlan, freshPlan) {
		return fmt.Errorf("warm: f32: warm plan differs from cold plan")
	}
	if err := store2.Close(); err != nil {
		return err
	}

	row := WarmRow{
		Matrix:    "banded-f32 (pinned MB)",
		NNZ:       m.NNZ(),
		Plan:      coldPlan.Opt.String(),
		ColdMs:    coldMs,
		FreshMs:   freshMs,
		ColdRuns:  coldRuns,
		PlanEqual: true,
	}
	if freshMs > 0 {
		row.Speedup = coldMs / freshMs
	}
	res.Rows = append(res.Rows, row)
	return nil
}

// Table renders the comparison.
func (r *WarmResult) Table() *report.Table {
	t := report.New("Plan store: cold tune vs warm start (host)",
		"matrix", "nnz", "plan", "cold ms", "warm ms", "restart ms", "cold runs", "warm runs", "speedup", "plan equal")
	for _, row := range r.Rows {
		eq := "yes"
		if !row.PlanEqual {
			eq = "NO"
		}
		t.Add(row.Matrix, report.F(float64(row.NNZ)), row.Plan,
			report.F(row.ColdMs), report.F(row.WarmMs), report.F(row.FreshMs),
			fmt.Sprintf("%d", row.ColdRuns), fmt.Sprintf("%d", row.WarmRuns),
			report.Fx(row.Speedup), eq)
	}
	t.AddNote("warm starts perform zero classification and zero candidate-sweep measurements (asserted)")
	t.AddNote("'restart' re-tunes through a fresh store handle and executor: the on-disk plan alone warms it")
	return t
}
