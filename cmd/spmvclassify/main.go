// Command spmvclassify diagnoses one sparse matrix on a platform: it
// prints the Table I features, the Section III-B performance bounds,
// the detected bottleneck classes (Fig 4), and the optimizations the
// tuner would apply (Table II).
//
//	spmvclassify -mtx matrix.mtx -platform knl
//	spmvclassify -suite rajat30 -platform knc
//
// With -json the tool emits the decision as the Plan IR instead — the
// same versioned, fingerprint-bound artifact the plan store persists,
// suitable for shipping to a serving host (docs/guide/plans.md):
//
//	spmvclassify -suite rajat30 -platform knl -json > rajat30.plan.json
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/sparsekit/spmvtuner/internal/classify"
	"github.com/sparsekit/spmvtuner/internal/core"
	"github.com/sparsekit/spmvtuner/internal/features"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/mmio"
	"github.com/sparsekit/spmvtuner/internal/plan"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/sim"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

func main() {
	var (
		mtxPath   = flag.String("mtx", "", "Matrix Market file to classify")
		suiteName = flag.String("suite", "", "evaluation-suite matrix name (alternative to -mtx)")
		platform  = flag.String("platform", "knc", "platform model: knc, knl, bdw, host")
		scale     = flag.Float64("scale", 1.0, "suite scale when using -suite")
		asJSON    = flag.Bool("json", false, "emit the decision as the Plan IR (JSON) instead of tables")
	)
	flag.Parse()

	m, err := loadMatrix(*mtxPath, *suiteName, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmvclassify:", err)
		os.Exit(1)
	}
	mdl, err := machine.ByCodename(*platform)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmvclassify:", err)
		os.Exit(1)
	}

	p := core.New(sim.New(mdl))
	a := p.Analyze(m)
	if *asJSON {
		data, err := plan.Encode(a.Plan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spmvclassify:", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		return
	}
	printAnalysis(m, mdl, a)
}

func loadMatrix(mtxPath, suiteName string, scale float64) (*matrix.CSR, error) {
	switch {
	case mtxPath != "" && suiteName != "":
		return nil, fmt.Errorf("use either -mtx or -suite, not both")
	case mtxPath != "":
		return mmio.ReadFile(mtxPath)
	case suiteName != "":
		m := suite.ByName(suiteName, scale)
		if m == nil {
			return nil, fmt.Errorf("unknown suite matrix %q (see spmvbench -exp features for names)", suiteName)
		}
		return m, nil
	default:
		return nil, fmt.Errorf("provide -mtx FILE or -suite NAME")
	}
}

func printAnalysis(m *matrix.CSR, mdl machine.Model, a core.Analysis) {
	name := m.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Printf("matrix   %s: %d x %d, %d nonzeros\n", name, m.NRows, m.NCols, m.NNZ())
	fmt.Printf("platform %s\n\n", mdl)

	ft := report.New("Table I features", "feature", "value")
	fs := a.Features
	for _, n := range features.AllNames() {
		ft.Add(string(n), report.F(fs.Get(n)))
	}
	fmt.Println(ft.String())

	bt := report.New("Per-class performance bounds (Gflop/s)", "bound", "value", "vs CSR")
	b := a.Bounds
	add := func(label string, v float64) {
		ratio := "-"
		if b.PCSR > 0 {
			ratio = report.Fx(v / b.PCSR)
		}
		bt.Add(label, report.F(v), ratio)
	}
	bt.Add("P_CSR (baseline)", report.F(b.PCSR), "1.00x")
	add("P_ML", b.PML)
	add("P_IMB", b.PIMB)
	add("P_CMP", b.PCMP)
	add("P_MB", b.PMB)
	add("P_peak", b.Ppeak)
	fmt.Println(bt.String())

	fmt.Printf("classes          %s\n", a.Classes)
	for _, c := range a.Classes.Classes() {
		fmt.Printf("  %-4s %s\n", c, classDescription(c))
	}
	fmt.Printf("optimizations    %s\n", a.Plan.Opt)
	fmt.Printf("optimized        %s -> %s Gflop/s (%s)\n",
		report.F(b.PCSR), report.F(a.Optimized.Gflops),
		report.Fx(a.Optimized.Gflops/maxf(b.PCSR, 1e-12)))
	fmt.Printf("preprocessing    %s\n", report.Seconds(a.Plan.PreprocessSeconds))
}

func classDescription(c classify.Class) string {
	switch c {
	case classify.MB:
		return "memory bandwidth bound: compress indices + vectorize"
	case classify.ML:
		return "memory latency bound: software prefetch x"
	case classify.IMB:
		return "thread imbalance: decompose long rows or auto-schedule"
	case classify.CMP:
		return "compute bound: unroll + vectorize"
	default:
		return ""
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
