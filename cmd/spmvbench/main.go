// Command spmvbench regenerates the paper's tables and figures from
// the reproduction (see DESIGN.md for the experiment index):
//
//	spmvbench -exp fig1                 # Fig 1 on the KNC model
//	spmvbench -exp fig3                 # Fig 3 bounds on KNC
//	spmvbench -exp fig7 -platform knl   # one Fig 7 panel
//	spmvbench -exp table4               # classifier accuracy
//	spmvbench -exp table5               # overhead amortization
//	spmvbench -exp platforms            # Table III
//	spmvbench -exp sellcs -scale 0.1    # SELL-C-σ vs CSR vector kernel
//	spmvbench -exp spmm -scale 0.1      # batch SpMM vs per-vector loop
//	spmvbench -exp sym -scale 0.1       # symmetric SSS vs expanded CSR
//	spmvbench -exp warm -scale 0.1      # plan store: cold tune vs warm start
//	spmvbench -exp serve -scale 0.1     # serving: coalesced vs sequential
//	spmvbench -exp twin -scale 0.1      # digital twin: predicted vs measured Gflops
//	spmvbench -exp kernels -scale 0.1   # SIMD assembly kernels vs scalar oracles
//	spmvbench -exp mixed -scale 0.25    # reduced-precision value streams vs f64
//	spmvbench -exp all -scale 0.25      # every modeled experiment
//
// The sellcs, spmm, sym, warm and serve experiments run natively on
// the host through the persistent worker-pool engine; everything else
// is modeled, and "all" covers only the modeled set (request the
// native ones explicitly). The warm and serve
// experiments assert their own invariants (zero warm-path
// measurements and identical plans; coalesced throughput at least
// sequential and reference-exact answers) and exit nonzero when they
// fail, so CI can use them as smoke tests; twin likewise exits
// nonzero when the cost model's mean prediction error exceeds its
// gate, kernels exits nonzero when any assembly body runs slower
// than its scalar oracle, and mixed exits nonzero when a reduced
// value stream breaks its documented error bound or the geomean f32
// speedup over MB-classified matrices falls below its gate. -json
// writes the serve, twin, kernels or mixed result as JSON beside the
// table. A -matrix name outside the suite is an error before any
// experiment runs.
//
// Ablations: ablate-delta, ablate-split, ablate-sched,
// ablate-prefetch, ablate-partitioned-ml.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strings"

	"github.com/sparsekit/spmvtuner/internal/experiments"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

func main() {
	// main exits through run so deferred cleanup (the CPU-profile
	// flush) always runs before os.Exit.
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spmvbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spmvbench", flag.ExitOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: fig1, fig3, fig7, table4, table5, platforms, features, sellcs, spmm, sym, warm, serve, twin, kernels, mixed, ablate-*, all")
		platform = fs.String("platform", "", "fig7 platform: knc, knl, bdw (default: all three)")
		scale    = fs.Float64("scale", 1.0, "suite size multiplier (1.0 = reproduction size)")
		corpus   = fs.Int("corpus", 210, "training corpus size")
		matrices = fs.String("matrix", "", "comma-separated suite subset")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonPath = fs.String("json", "", "also write the result as JSON to this path (serve, twin, kernels, mixed)")
		profile  = fs.String("cpuprofile", "", "write a CPU profile to this path (the PGO collection hook: a suite run's profile becomes cmd/spmvbench/default.pgo)")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits with usage

	cfg := experiments.Config{Scale: *scale, CorpusSize: *corpus}
	if *matrices != "" {
		cfg.Matrices = strings.Split(*matrices, ",")
		// The experiments' suite filters drop unknown names, which
		// would print an empty table instead of failing.
		known := suite.Names()
		for _, n := range cfg.Matrices {
			if !slices.Contains(known, n) {
				return fmt.Errorf("unknown -matrix %q; suite matrices: %s", n, strings.Join(known, ", "))
			}
		}
	}

	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	emit := func(t *report.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}

	// show emits an experiment's table, or returns its error.
	show := func(res interface{ Table() *report.Table }, err error) error {
		if err != nil {
			return err
		}
		emit(res.Table())
		return nil
	}
	runFig7 := func(code string) error { return show(experiments.Fig7(code, cfg)) }

	var err error
	switch *exp {
	case "fig1":
		err = show(experiments.Fig1(cfg))
	case "fig3":
		err = show(experiments.Fig3(cfg))
	case "table4":
		emit(experiments.Table4(cfg).Table())
	case "table5":
		err = show(experiments.Table5(cfg))
	case "fig7":
		if *platform != "" {
			err = runFig7(*platform)
		} else {
			for _, code := range []string{"knc", "knl", "bdw"} {
				if err = runFig7(code); err != nil {
					break
				}
			}
		}
	case "platforms":
		emit(experiments.Platforms())
	case "features":
		emit(experiments.FeatureTable(cfg))
	case "sellcs":
		err = show(experiments.SellCS(cfg))
	case "spmm":
		err = show(experiments.SpMM(cfg))
	case "sym":
		// The exactness gate returns the result alongside the error:
		// emit the table either way so a failing run shows which
		// matrix diverged.
		var res experiments.SymResult
		res, err = experiments.Sym(cfg)
		emit(res.Table())
	case "warm":
		err = show(experiments.Warm(cfg))
	case "serve":
		var res *experiments.ServeResult
		if res, err = experiments.Serve(cfg); err == nil {
			emit(res.Table())
			err = writeJSON(*jsonPath, res)
			// The throughput gate is wall-clock, so it lives here and
			// not in the experiment its unit tests call.
			if err == nil && res.Speedup < 1.0 {
				err = fmt.Errorf("serve: coalescing is a slowdown: median %.2fx of rounds %.2f (%.0f vs %.0f req/s)",
					res.Speedup, res.RoundSpeedups, res.Coalesced.ReqPerSec, res.Sequential.ReqPerSec)
			}
		}
	case "kernels":
		var res *experiments.KernelsResult
		if res, err = experiments.Kernels(cfg); err == nil {
			emit(res.Table())
			// The regression gate is wall-clock, so it lives here and
			// not in the experiment its unit tests call. The table is
			// out first, so a failing gate shows which (matrix, kernel)
			// pair lost to the compiler.
			err = cmp.Or(res.Gate(), writeJSON(*jsonPath, res))
		}
	case "mixed":
		// The mixed-precision gate returns the result alongside the
		// error: emit the table either way so a failing gate shows
		// which matrix lost or broke its error bound.
		res, merr := experiments.Mixed(cfg)
		if res != nil {
			emit(res.Table())
			merr = cmp.Or(merr, writeJSON(*jsonPath, res))
		}
		err = merr
	case "twin":
		var res *experiments.TwinResult
		if res, err = experiments.Twin(cfg); err == nil {
			emit(res.Table())
			// The accuracy gate is wall-clock, so it lives here and not
			// in the experiment its unit tests call. The table is out
			// first, so a failing smoke still shows which matrices
			// missed.
			err = cmp.Or(res.Gate(), writeJSON(*jsonPath, res))
		}
	case "ablate-delta":
		emit(experiments.AblateDelta(cfg).Table())
	case "ablate-split":
		emit(experiments.AblateSplit(cfg).Table())
	case "ablate-sched":
		emit(experiments.AblateSched(cfg).Table())
	case "ablate-prefetch":
		emit(experiments.AblatePrefetch(cfg).Table())
	case "ablate-partitioned-ml":
		emit(experiments.PartitionedML(cfg).Table())
	case "all":
		emit(experiments.Platforms())
		err = show(experiments.Fig1(cfg))
		if err == nil {
			err = show(experiments.Fig3(cfg))
		}
		if err == nil {
			emit(experiments.Table4(cfg).Table())
			for _, code := range []string{"knc", "knl", "bdw"} {
				if err = runFig7(code); err != nil {
					break
				}
			}
		}
		if err == nil {
			err = show(experiments.Table5(cfg))
		}
		if err == nil {
			emit(experiments.AblateDelta(cfg).Table())
			emit(experiments.AblateSplit(cfg).Table())
			emit(experiments.AblateSched(cfg).Table())
			emit(experiments.AblatePrefetch(cfg).Table())
			emit(experiments.PartitionedML(cfg).Table())
		}
	default:
		err = fmt.Errorf("unknown experiment %q", *exp)
	}
	return err
}

// writeJSON writes v as indented JSON, newline-terminated, to path; an
// empty path writes nothing.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
