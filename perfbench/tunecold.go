package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	spmv "github.com/sparsekit/spmvtuner"
	"github.com/sparsekit/spmvtuner/internal/bounds"
	"github.com/sparsekit/spmvtuner/internal/classify"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/features"
	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/opt"
	"github.com/sparsekit/spmvtuner/internal/plan"
	"github.com/sparsekit/spmvtuner/internal/planstore"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// tuneLayers are the spans a traced cold tune splits into, in pipeline
// order.
var tuneLayers = []string{"matrix.fingerprint", "planstore.get", "bounds.measure", "features.extract", "opt.plan", "native.prepare", "planstore.put"}

// runTuneCold is the paper's pipeline, and the only workload where bounds
// profiling, classification and the commit measurement run. Every round
// builds a fresh Tuner with an empty plan store, cold-tunes each matrix,
// then times steady-state MulVec sweeps (one call per matrix).
//
// End-to-end: setup_s is the median over rounds of the cold Tune time
// summed over the matrices; spmv_gflops the geomean over matrices of
// 2*nnz over the MulVec time (the per-round median, averaged over
// rounds).
//
// The traced run alternates facade rounds with rounds that perform the
// same cold tune step by step through each layer's public function, and
// times plain CSR interleaved with the tuned kernel.
func runTuneCold(rc *runCtx) (*outcome, error) {
	rng := rand.New(rand.NewSource(rc.seed))
	n := len(rc.matrices)
	out := &outcome{metrics: map[string]float64{}}
	ms := make([]*spmv.Matrix, n)
	csrs := make([]*matrix.CSR, n)
	xs, ys, refs := make([][]float64, n), make([][]float64, n), make([][]float64, n)
	for i, s := range rc.matrices {
		m, err := spmv.SuiteMatrix(s.name, s.scale)
		if err != nil {
			return nil, err
		}
		ms[i] = m
		xs[i] = randVec(rng, m.Cols())
		ys[i] = make([]float64, m.Rows())
		refs[i] = make([]float64, m.Rows())
		m.MulVec(xs[i], refs[i])
		out.addWorkingSet(csrBytes(m.Rows(), m.Cols(), m.NNZ()))
		if rc.tr != nil {
			csrs[i] = suite.ByName(s.name, s.scale)
		}
	}

	sweepBudget := rc.seconds / 30
	var (
		setups, sweeps []float64
		roundMed       = make([][]float64, n) // per-round median MulVec seconds
		plans          = make([]map[string]bool, n)
		tc             = newTracedCold(n)
	)
	for i := range plans {
		plans[i] = map[string]bool{}
	}
	deadline := time.Now().Add(rc.seconds)
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		if rc.tr != nil && round%2 == 1 {
			tc.round(rc, out, round, csrs, xs, ys, refs, sweepBudget, plans)
			continue
		}
		runtime.GC() // the previous round's garbage is collected before timing
		t := spmv.NewTuner()
		muls := make([]func(x, y []float64), n)
		var setup float64
		for i, m := range ms {
			start := time.Now()
			k := t.Tune(m)
			setup += time.Since(start).Seconds()
			out.attempted++
			if k.Info().Warm {
				out.fail(rc, "round %d %s: tune was warm from an empty plan store", round, rc.matrices[i].name)
			}
			plans[i][k.Optimizations()] = true
			muls[i] = k.MulVec
			fmt.Fprintf(rc.report, "decision round=%d matrix=%s plan=%s\n", round, rc.matrices[i].name, k.Optimizations())
		}
		setups = append(setups, setup)
		runtime.GC()
		before := len(sweeps)
		perMat := make([][]float64, n)
		sweepKernels(muls, xs, ys, sweepBudget, perMat, &sweeps, nil)
		out.attempted += (len(sweeps)-before)*n + checkOutputs(rc, out, round, ys, refs)
		for i := range perMat {
			roundMed[i] = append(roundMed[i], median(perMat[i]))
		}
		if err := t.Close(); err != nil {
			return nil, err
		}
	}

	if rc.tr == nil {
		// The plan, and with it the kernel, can change from round to
		// round; the mean over rounds moves smoothly with that mix where
		// a pooled median would jump between kernels.
		rates := make([]float64, n)
		for i, m := range ms {
			rates[i] = 2 * float64(m.NNZ()) / mean(roundMed[i]) / 1e9
			fmt.Fprintf(rc.report, "summary matrix=%s mean_round_median_us=%.1f plans=%d\n", rc.matrices[i].name, mean(roundMed[i])*1e6, len(plans[i]))
		}
		reportDist(rc.report, "sweep", sweeps, 1e3, "ms")
		reportDist(rc.report, "setup", setups, 1, "s")
		fmt.Fprintf(rc.report, "sweeps_per_s: %.3f\n", float64(len(sweeps))/sum(sweeps))
		out.metrics["setup_s"] = median(setups)
		out.metrics["spmv_gflops"] = geomean(rates)
		return out, nil
	}
	changes := 0
	for _, p := range plans {
		if len(p) > 1 {
			changes++
		}
	}
	out.metrics["opt.plan_changes"] = float64(changes)
	tc.metrics(rc, out, mean(setups))
	return out, nil
}

// tracedCold accumulates the traced rounds of tune-cold.
type tracedCold struct {
	layer        map[string][]float64 // per-round seconds per tune layer
	runs, tunes  int
	hits, misses int
	rounds       int
	tuned, csr   [][]float64 // per-matrix MulVec seconds
	bytes        []int64     // per-matrix kernel bytes per multiply
	threads      int
	spanSums     []float64 // per-round sum of the tune layers
}

func newTracedCold(n int) *tracedCold {
	return &tracedCold{
		layer: map[string][]float64{},
		tuned: make([][]float64, n),
		csr:   make([][]float64, n),
		bytes: make([]int64, n),
	}
}

// round is one traced cold-tune round: the steps core.Pipeline.Prepare
// takes on a plan-store miss, each called and timed here, on a fresh
// native executor wrapped by the counting shim.
func (tc *tracedCold) round(rc *runCtx, out *outcome, round int, csrs []*matrix.CSR,
	xs, ys, refs [][]float64, budget time.Duration, plans []map[string]bool) {
	tr := rc.tr
	runtime.GC()
	host := machine.Host()
	nat := native.NewWithModel(host)
	defer nat.Close()
	sh := &shimExec{Executor: nat, tr: tr}
	store := planstore.New(planstore.DefaultCapacity)
	fparams := features.Params{LLCBytes: host.LLCBytes(), CacheLineBytes: host.CacheLineBytes}
	th := classify.DefaultThresholds()

	n := len(csrs)
	tuned := make([]*native.Prepared, n)
	csrK := make([]*native.Prepared, n)
	perLayer := map[string]float64{}
	var spans float64
	for i, m := range csrs {
		root := tr.start("tune", -1)
		sh.parent = root
		id := tr.start("matrix.fingerprint", root)
		m.SymmetryKind()
		fpr := matrix.Fingerprint(m)
		tr.stop(id)
		key := planstore.Key{Fingerprint: fpr, Machine: host.Codename, Version: plan.CurrentVersion}
		id = tr.start("planstore.get", root)
		_, hit := store.Get(key)
		tr.stop(id)
		if hit {
			tc.hits++
			out.fail(rc, "round %d %s: plan-store hit in an empty store", round, rc.matrices[i].name)
		} else {
			tc.misses++
		}
		runs0 := sh.runs

		id = tr.start("bounds.measure", root)
		sh.parent = id
		b := bounds.Measure(sh, m)
		tr.stop(id)

		id = tr.start("features.extract", root)
		fs := features.Extract(m, fparams)
		tr.stop(id)

		id = tr.start("opt.plan", root)
		sh.parent = id
		set := classify.ProfileGuided{Th: th}.Classify(b)
		pl := plan.Plan{
			Version: plan.CurrentVersion, Fingerprint: fpr, Machine: host.Codename,
			Optimizer: "profile-guided", Classes: set, HasClasses: true, Opt: opt.OptimFor(set, fs),
			KernelISA: kernels.ISA(), Library: plan.Library,
		}
		pl.MeasuredGflops = opt.Evaluate(sh, m, pl).Gflops
		tr.stop(id)

		sh.parent = root
		tuned[i] = sh.Prepare(m, pl.Opt).(*native.Prepared)
		id = tr.start("planstore.put", root)
		if err := store.Put(key, pl); err != nil {
			out.fail(rc, "round %d %s: plan store put: %v", round, rc.matrices[i].name, err)
		}
		tr.stop(id)
		tr.stop(root)
		out.attempted++
		tc.runs += sh.runs - runs0
		tc.tunes++
		for _, l := range tuneLayers {
			s := tr.children(root, l)
			perLayer[l] += s
			spans += s
		}
		plans[i][pl.Opt.String()] = true
		csrK[i] = nat.Prepare(m, ex.Optim{}).(*native.Prepared)
		tc.bytes[i] = tuned[i].MemBytes() + 8*int64(m.NRows+m.NCols)
		tc.threads = max(tc.threads, tuned[i].Threads())
	}
	for l, s := range perLayer {
		tc.layer[l] = append(tc.layer[l], s)
	}
	tc.spanSums = append(tc.spanSums, spans)
	tc.rounds++

	// Tuned and plain-CSR kernels alternate call by call, so both see
	// the same machine state.
	muls := make([]func(x, y []float64), 0, 2*n)
	for i := range csrs {
		muls = append(muls, tuned[i].MulVec, csrK[i].MulVec)
	}
	pair := func(v [][]float64) [][]float64 {
		o := make([][]float64, 0, 2*n)
		for i := range v {
			o = append(o, v[i], v[i])
		}
		return o
	}
	pys := make([][]float64, 0, 2*n)
	for i := range ys {
		pys = append(pys, ys[i], make([]float64, len(ys[i])))
	}
	samples := make([][]float64, 2*n)
	var sweeps []float64
	runtime.GC()
	sweepKernels(muls, pair(xs), pys, budget, samples, &sweeps, tr)
	out.attempted += len(sweeps)*2*n + checkOutputs(rc, out, round, pys, pair(refs))
	for i := range csrs {
		tc.tuned[i] = append(tc.tuned[i], samples[2*i]...)
		tc.csr[i] = append(tc.csr[i], samples[2*i+1]...)
		m := csrs[i]
		t, c := median(samples[2*i]), median(samples[2*i+1])
		flag := ""
		if c < t {
			flag = " LOSS"
		}
		fmt.Fprintf(rc.report, "decision round=%d matrix=%s plan=%s kernel=%s tuned_gflops=%.3f csr_gflops=%.3f tuned_over_csr=%.3f%s\n",
			round, rc.matrices[i].name, tuned[i].Opt().String(), tuned[i].Kernel(),
			m.Flops()/t/1e9, m.Flops()/c/1e9, c/t, flag)
	}
}

// metrics reports the traced rounds' per-layer numbers.
func (tc *tracedCold) metrics(rc *runCtx, out *outcome, facadeSetup float64) {
	if tc.rounds == 0 {
		return
	}
	layer := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			s += median(tc.layer[n])
		}
		return s
	}
	out.metrics["bounds.measure_s"] = layer("bounds.measure")
	out.metrics["features.extract_s"] = layer("features.extract")
	out.metrics["opt.plan_s"] = layer("opt.plan")
	out.metrics["native.prepare_s"] = layer("native.prepare")
	out.metrics["matrix.fingerprint_s"] = layer("matrix.fingerprint")
	out.metrics["planstore.s"] = layer("planstore.get", "planstore.put")
	out.metrics["opt.runs"] = float64(tc.runs) / float64(tc.tunes)
	out.metrics["planstore.hits"] = float64(tc.hits) / float64(tc.rounds)
	out.metrics["planstore.misses"] = float64(tc.misses) / float64(tc.rounds)
	out.metrics["native.threads"] = float64(tc.threads)
	ratios := make([]float64, len(tc.tuned))
	for i := range tc.tuned {
		ratios[i] = median(tc.csr[i]) / median(tc.tuned[i])
	}
	out.metrics["opt.tuned_over_csr"] = geomean(ratios)
	kernelMetrics(rc, out, tc.tuned, tc.bytes, tc.threads)
	out.metrics["trace.coverage"] = mean(tc.spanSums) / facadeSetup
	out.metrics["trace.overhead_frac"] = rc.tr.overheadFrac()
	fmt.Fprintf(rc.report, "coverage: traced tune layers %.4fs against facade cold Tune %.4fs (means per round)\n",
		mean(tc.spanSums), facadeSetup)
}

// sweepKernels calls every kernel once per sweep, timing each call, until
// budget is spent (at least three sweeps after one untimed warm-up).
// Call times append to perMat[i], sweep times to sweeps. With a tracer,
// each call is a kernels.spmv span.
func sweepKernels(muls []func(x, y []float64), xs, ys [][]float64, budget time.Duration,
	perMat [][]float64, sweeps *[]float64, tr *tracer) {
	for i, mul := range muls {
		mul(xs[i], ys[i])
	}
	end := time.Now().Add(budget)
	for s := 0; s < 3 || time.Now().Before(end); s++ {
		var total float64
		for i, mul := range muls {
			id := tr.start("kernels.spmv", -1)
			start := time.Now()
			mul(xs[i], ys[i])
			d := time.Since(start).Seconds()
			tr.stop(id)
			perMat[i] = append(perMat[i], d)
			total += d
		}
		*sweeps = append(*sweeps, total)
	}
}

// checkOutputs compares each output with its reference, counting a
// mismatch as a failed operation; it returns the number of checks.
func checkOutputs(rc *runCtx, out *outcome, round int, ys, refs [][]float64) int {
	for i := range ys {
		if rc.corrupt != nil {
			rc.corrupt(ys[i])
		}
		if e := relErr(ys[i], refs[i]); !(e <= tolSpMV) {
			out.fail(rc, "round %d output %d: relative error %.3g against the serial CSR reference", round, i, e)
		}
	}
	return len(ys)
}
