package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	spmv "github.com/sparsekit/spmvtuner"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/solver"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// cgTol is the relative residual CG solves to.
const cgTol = 1e-8

// runSolve is the warm iterative workload: the kernels, the worker pool
// and the solver's vector loops do nearly all the work, and tuning does
// none. Each round builds a fresh Tuner over a plan store seeded with
// model-decided plans, warm-tunes both matrices and runs CG on each.
//
// End-to-end: setup_s is the median warm Tune time (both matrices);
// spmv_gflops is the geomean over matrices of 2*nnz over the median
// MulVec call inside CG. The report gives the CG wall time of a round
// (both systems), and the traced run reports it as solver.cg_s.
//
// The traced run alternates facade rounds with rounds that call
// core.Pipeline.Prepare through the counting executor shim and time
// each MulVec callback of the solver.
func runSolve(rc *runCtx) (*outcome, error) {
	rng := rand.New(rand.NewSource(rc.seed))
	n := len(rc.matrices)
	out := &outcome{metrics: map[string]float64{}}
	ms := make([]*spmv.Matrix, n)
	csrs := make([]*matrix.CSR, n)
	bs := make([][]float64, n)
	for i, s := range rc.matrices {
		m, err := spmv.SuiteMatrix(s.name, s.scale)
		if err != nil {
			return nil, err
		}
		ms[i] = m
		bs[i] = make([]float64, m.Rows())
		for j := range bs[i] {
			// A seeded perturbation of the all-ones right-hand side keeps
			// the iteration count nearly independent of the seed.
			bs[i][j] = 1 + 1e-3*(rng.Float64()-0.5)
		}
		out.addWorkingSet(csrBytes(m.Rows(), m.Cols(), m.NNZ()) + 4*8*int64(m.Rows()))
		if rc.tr != nil {
			csrs[i] = suite.ByName(s.name, s.scale)
		}
	}
	dir := filepath.Join(rc.outDir, "solve-plans")
	if err := seedPlans(dir, ms); err != nil {
		return nil, err
	}

	var (
		setups, solves []float64
		perMat         = make([][]float64, n)
		ts             = &tracedSolve{perMat: make([][]float64, n)}
	)
	deadline := time.Now().Add(rc.seconds)
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		if rc.tr != nil && round%2 == 1 {
			if err := ts.round(rc, out, round, dir, csrs, ms, bs); err != nil {
				return nil, err
			}
			continue
		}
		runtime.GC() // the previous round's garbage is collected before timing
		t := spmv.NewTuner(spmv.WithPlanStore(dir))
		var setup, wall float64
		tuned := make([]*spmv.Tuned, n)
		for i, m := range ms {
			start := time.Now()
			tuned[i] = t.Tune(m)
			setup += time.Since(start).Seconds()
			out.attempted++
			if !tuned[i].Info().Warm {
				out.fail(rc, "round %d %s: cold tune; the seeded plan was not used", round, rc.matrices[i].name)
			}
		}
		runtime.GC()
		for i, m := range ms {
			k := tuned[i]
			mul := func(x, y []float64) {
				start := time.Now()
				k.MulVec(x, y)
				perMat[i] = append(perMat[i], time.Since(start).Seconds())
			}
			start := time.Now()
			res, err := solver.CG(mul, bs[i], solver.Options{Tol: cgTol})
			d := time.Since(start).Seconds()
			wall += d
			fmt.Fprintf(rc.report, "solve round=%d matrix=%s plan=%s iters=%d seconds=%.3f\n", round, rc.matrices[i].name, k.Optimizations(), res.Iters, d)
			checkSolve(rc, out, round, i, m.MulVec, bs[i], res, err)
		}
		if err := t.Close(); err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		solves = append(solves, wall)
	}

	if rc.tr != nil {
		ts.metrics(rc, out, mean(setups)+mean(solves))
		return out, nil
	}
	rates := make([]float64, n)
	for i, m := range ms {
		rates[i] = 2 * float64(m.NNZ()) / median(perMat[i]) / 1e9
	}
	reportDist(rc.report, "solve", solves, 1e3, "ms")
	reportDist(rc.report, "setup", setups, 1, "s")
	out.metrics["setup_s"] = median(setups)
	out.metrics["spmv_gflops"] = geomean(rates)
	return out, nil
}

// checkSolve counts one CG solve, failing it unless it converged and
// the residual recomputed with the serial reference kernel meets the
// tolerance.
func checkSolve(rc *runCtx, out *outcome, round, i int, ref func(x, y []float64), b []float64, res solver.Result, err error) {
	out.attempted++
	if err != nil || !res.Converged {
		out.fail(rc, "round %d %s: CG did not converge (%v, %d iterations)", round, rc.matrices[i].name, err, res.Iters)
		return
	}
	r := make([]float64, len(b))
	ref(res.X, r)
	if rc.corrupt != nil {
		rc.corrupt(r)
	}
	var rr, bb float64
	for j := range b {
		d := b[j] - r[j]
		rr += d * d
		bb += b[j] * b[j]
	}
	if rel := math.Sqrt(rr / bb); !(rel <= cgTol) {
		out.fail(rc, "round %d %s: true relative residual %.3g exceeds %.0g", round, rc.matrices[i].name, rel, cgTol)
	}
}

// seedPlans fills a plan store with plans decided on the host model, so
// the same plan runs on every run and no measurement decides it.
func seedPlans(dir string, ms []*spmv.Matrix) (err error) {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer func() {
		if p := recover(); p != nil { // NewTuner panics on an unusable store
			err = fmt.Errorf("seed plan store: %v", p)
		}
	}()
	t := spmv.NewTuner(spmv.OnPlatform("host"), spmv.WithPlanStore(dir))
	for _, m := range ms {
		t.Tune(m)
	}
	return t.Close()
}

// tracedSolve accumulates the traced rounds of solve.
type tracedSolve struct {
	prepare, vecops, spans []float64 // per round
	cgWall                 []float64 // per round, both systems
	iters                  []float64 // per round, both systems
	kernel, cg             float64   // totals over rounds
	runs, tunes            int
	hits, misses, rounds   int
	perMat                 [][]float64
	bytes                  []int64
	threads                int
}

// round is one traced solve round: the facade's warm path through
// core.Pipeline.Prepare on a counting shim, then CG with every MulVec
// callback recorded as a kernels.spmv span.
func (ts *tracedSolve) round(rc *runCtx, out *outcome, round int, dir string, csrs []*matrix.CSR, ms []*spmv.Matrix, bs [][]float64) error {
	tr := rc.tr
	runtime.GC()
	w, err := tracedWarmStart(rc, out, dir, csrs)
	if err != nil {
		return err
	}
	defer w.close()
	ts.tunes += len(csrs)
	ts.runs += w.runs
	ts.hits += w.hits
	ts.misses += w.misses
	ts.bytes, ts.threads = w.bytes, w.threads

	var vec, cgWall float64
	var iters int
	runtime.GC()
	for i, k := range w.kernels {
		cg := tr.start("solver.cg", -1)
		mul := func(x, y []float64) {
			id := tr.start("kernels.spmv", cg)
			start := time.Now()
			k.MulVec(x, y)
			ts.perMat[i] = append(ts.perMat[i], time.Since(start).Seconds())
			tr.stop(id)
		}
		res, err := solver.CG(mul, bs[i], solver.Options{Tol: cgTol})
		wall := tr.stop(cg)
		fmt.Fprintf(rc.report, "solve round=%d matrix=%s traced iters=%d seconds=%.3f\n", round, rc.matrices[i].name, res.Iters, wall)
		kern := tr.children(cg, "kernels.spmv")
		ts.kernel += kern
		ts.cg += wall
		vec += wall - kern
		cgWall += wall
		iters += res.Iters
		checkSolve(rc, out, round, i, ms[i].MulVec, bs[i], res, err)
	}
	ts.prepare = append(ts.prepare, w.prep)
	ts.vecops = append(ts.vecops, vec)
	ts.cgWall = append(ts.cgWall, cgWall)
	ts.iters = append(ts.iters, float64(iters))
	ts.spans = append(ts.spans, w.open+w.prep+cgWall)
	ts.rounds++
	return nil
}

func (ts *tracedSolve) metrics(rc *runCtx, out *outcome, facade float64) {
	if ts.rounds == 0 {
		return
	}
	out.metrics["native.prepare_s"] = median(ts.prepare)
	out.metrics["native.threads"] = float64(ts.threads)
	out.metrics["opt.runs"] = float64(ts.runs) / float64(ts.tunes)
	out.metrics["planstore.hits"] = float64(ts.hits) / float64(ts.rounds)
	out.metrics["planstore.misses"] = float64(ts.misses) / float64(ts.rounds)
	out.metrics["solver.iters"] = median(ts.iters)
	out.metrics["solver.cg_s"] = median(ts.cgWall)
	out.metrics["solver.spmv_frac"] = ts.kernel / ts.cg
	out.metrics["solver.vecops_s"] = median(ts.vecops)
	kernelMetrics(rc, out, ts.perMat, ts.bytes, ts.threads)
	out.metrics["trace.coverage"] = mean(ts.spans) / facade
	fmt.Fprintf(rc.report, "coverage: traced store open, prepare and CG %.4fs against facade warm Tune and CG %.4fs (means per round)\n",
		mean(ts.spans), facade)
	out.metrics["trace.overhead_frac"] = rc.tr.overheadFrac()
}

// kernelMetrics reports per-matrix kernel times and the computed
// bandwidth they achieve against a STREAM triad measured now at the
// kernels' thread count. The bytes are computed from the prepared
// format's size plus x and y, not measured.
func kernelMetrics(rc *runCtx, out *outcome, perMat [][]float64, bytes []int64, threads int) {
	stream := native.StreamTriad(1<<21, threads, 10)
	out.metrics["calib.stream_gbs"] = stream
	var gbs []float64
	for i, s := range rc.matrices {
		t := median(perMat[i])
		g := float64(bytes[i]) / t / 1e9
		gbs = append(gbs, g)
		out.metrics[spmvUsName(rc.workload, s.name)] = t * 1e6
		fmt.Fprintf(rc.report, "kernel matrix=%s spmv_us=%.1f computed_gbs=%.2f roof_frac=%.3f\n", s.name, t*1e6, g, g/stream)
	}
	out.metrics["kernels.achieved_gbs"] = geomean(gbs)
	out.metrics["kernels.roof_frac"] = geomean(gbs) / stream
}
