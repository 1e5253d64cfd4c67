package ref

import (
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/opt"
	"github.com/sparsekit/spmvtuner/internal/plan"
	"github.com/sparsekit/spmvtuner/internal/sched"
	"github.com/sparsekit/spmvtuner/internal/sim"
)

func TestMKLPlanShape(t *testing.T) {
	e := sim.New(machine.KNL())
	m := gen.Banded(10000, 4, 1.0, 1)
	p := MKL{}.Plan(e, m)
	if !p.Opt.Vectorize || p.Opt.Schedule != sched.StaticRows {
		t.Fatalf("MKL plan %v: want vectorized static-rows", p.Opt)
	}
	if p.PreprocessSeconds != 0 {
		t.Fatal("MKL CSR has no preprocessing")
	}
	if p.Opt.Prefetch || p.Opt.Format == ex.FormatDelta || p.Opt.Format == ex.FormatSplit {
		t.Fatal("MKL must not be matrix-adaptive")
	}
}

func TestInspectorExecutorPlan(t *testing.T) {
	e := sim.New(machine.KNL())
	m := gen.Banded(100000, 8, 1.0, 2)
	ie := InspectorExecutor{}
	p := ie.Plan(e, m)
	if !p.Opt.Vectorize || !p.Opt.Unroll || p.Opt.Schedule != sched.StaticNNZ {
		t.Fatalf("IE plan %v", p.Opt)
	}
	if p.PreprocessSeconds <= 0 {
		t.Fatal("inspection must cost time (Table V)")
	}
	// Inspection cost grows with matrix size.
	big := gen.Banded(400000, 8, 1.0, 2)
	if ie.Plan(e, big).PreprocessSeconds <= p.PreprocessSeconds {
		t.Fatal("inspection cost should scale with the matrix")
	}
}

func TestIEBeatsMKLOnImbalance(t *testing.T) {
	// The nnz-balanced IE schedule must beat MKL's static rows on a
	// matrix with uneven row lengths — the paper's main IE advantage.
	e := sim.New(machine.KNL())
	m := gen.PowerLaw(300000, 10, 1.8, 60000, 3)
	mkl := opt.Evaluate(e, m, MKL{}.Plan(e, m)).Seconds
	ie := opt.Evaluate(e, m, InspectorExecutor{}.Plan(e, m)).Seconds
	if ie >= mkl {
		t.Fatalf("IE (%.3g) should beat MKL (%.3g) on skewed matrix", ie, mkl)
	}
}

func TestOptimizersImplementInterface(t *testing.T) {
	var _ opt.Optimizer = MKL{}
	var _ opt.Optimizer = InspectorExecutor{}
	if (MKL{}).Name() != "mkl" || (InspectorExecutor{}).Name() != "mkl-inspector" {
		t.Fatal("names wrong")
	}
}

// TestMKLBoundKernelNeverPlanned checks that both reference plans run.
// A bound probe is an exec.Config field that no plan.Plan can hold, so
// neither plan can be one.
func TestMKLBoundKernelNeverPlanned(t *testing.T) {
	e := sim.New(machine.Broadwell())
	m := gen.UniformRandom(5000, 5, 9)
	for _, p := range []plan.Plan{MKL{}.Plan(e, m), InspectorExecutor{}.Plan(e, m)} {
		r := e.Run(ex.Config{Matrix: m, Opt: p.Opt})
		if r.Seconds <= 0 {
			t.Fatal("plan did not run")
		}
	}
}
