// Command perfbench is spmvtuner's repository benchmark: one command
// runs a named workload, checks every output against the serial CSR
// reference, and prints each metric by name with its unit.
//
//	bash perfbench/run.sh --workload tune-cold --seed 1 --seconds 15 --trace 0
//
// run.sh builds this package and cmd/spmvserve from source into
// .bench_build and runs the benchmark from the repository root.
//
// Workloads (each uses at most 2 threads and 2 connections; the seed
// sets the x vectors, the right-hand sides and the request sequence):
//
//   - tune-cold: six suite matrices at scale 0.5, one per bottleneck
//     regime. Each round builds a fresh Tuner with an empty plan store,
//     cold-tunes every matrix, then times steady-state MulVec sweeps.
//   - solve: CG to 1e-8 on lap3d (scale 1) and lap2d (scale 0.25),
//     warm-started from a plan store seeded with model-decided plans.
//   - serve-http: spmvserve on loopback with a seeded plan store;
//     pattern1 and human_gene1 are registered from .mtx files and two
//     closed-loop connections POST /v1/mul/{name}.
//
// Every workload reports both end-to-end metrics, each with the meaning
// its workload gives it (see runTuneCold, runSolve and runServeHTTP):
// setup_s and spmv_gflops. The report before the result line also gives
// the latency of the workload's unit of work (a MulVec sweep over the
// tuned matrices, one round of CG solves of both systems, or one HTTP
// multiply) with its sample count, percentiles up to p99 and rate. Those
// are not end-to-end metrics: on a shared 2-CPU host whose memory
// bandwidth drifts by tens of percent for minutes at a time, their
// run-to-run spread (CG wall time up to 0.28 of the median) is wider
// than any usable regression bound. The traced run reports CG wall time
// and the HTTP client's latency and rate as per-layer metrics.
//
// With --trace 0 the benchmark reports the end-to-end metrics; with
// --trace 1 it reports per-layer metrics, timed from this package around
// calls into each layer's public functions, with 0 for layers the
// workload does not exercise. trace.coverage is the share of the
// workload's end-to-end time its layer spans account for, measured in
// the same run; trace.overhead_frac is the cost of recording the spans.
// The trace is kept in memory and written to the -out directory at the
// end. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics; everything before it is
// a human-readable report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the library or the server sees.
// Every workload reports each of them; the per-workload meaning is in
// the workload's doc comment.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"spmv_gflops", "GF/s"},
}

// perLayer are the traced metrics. A workload that does not exercise a
// layer reports 0 for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bounds.measure_s", "s"},
		{"features.extract_s", "s"},
		{"opt.plan_s", "s"},
		{"opt.runs", "count"},
		{"opt.tuned_over_csr", "ratio"},
		{"opt.plan_changes", "count"},
		{"native.prepare_s", "s"},
		{"matrix.fingerprint_s", "s"},
		{"planstore.s", "s"},
		{"native.threads", "count"},
		{"planstore.hits", "count"},
		{"planstore.misses", "count"},
		{"kernels.achieved_gbs", "GB/s"},
		{"kernels.roof_frac", "ratio"},
		{"calib.stream_gbs", "GB/s"},
		{"solver.iters", "count"},
		{"solver.cg_s", "s"},
		{"solver.spmv_frac", "ratio"},
		{"solver.vecops_s", "s"},
		{"mmio.parse_s", "s"},
		{"serve.batch_width", "count"},
		{"serve.p50_us", "us"},
		{"serve.p99_us", "us"},
		{"serve.inproc_p50_ms", "ms"},
		{"spmvserve.http_overhead_ms", "ms"},
		{"spmvserve.client_p50_ms", "ms"},
		{"spmvserve.client_p99_ms", "ms"},
		{"spmvserve.requests_per_s", "1/s"},
		{"trace.coverage", "ratio"},
		{"trace.overhead_frac", "ratio"},
	}
	for _, w := range workloads {
		for _, s := range w.matrices {
			defs = append(defs, metricDef{spmvUsName(w.name, s.name), "us"})
		}
	}
	return defs
}()

// coverageTolerance is how far trace.coverage may sit from 1 for the
// layer spans to count as accounting for the end-to-end time.
const coverageTolerance = 0.2

// spmvUsName is the per-matrix kernel-time metric of one workload.
func spmvUsName(workload, matrix string) string {
	return "kernels.spmv_us." + workload + "." + matrix
}

// matSpec is one suite matrix at one scale.
type matSpec struct {
	name  string
	scale float64
}

// workload is one named benchmark input set.
type workload struct {
	name     string
	matrices []matSpec
	run      func(rc *runCtx) (*outcome, error)
}

var workloads = []workload{
	{"tune-cold", []matSpec{
		{"small-dense", 0.5}, {"poisson3Db", 0.5}, {"FEM_3D_thermal2", 0.5},
		{"ASIC_680k", 0.5}, {"webbase-1M", 0.5}, {"lap3d", 0.5},
	}, runTuneCold},
	{"solve", []matSpec{{"lap3d", 1}, {"lap2d", 0.25}}, runSolve},
	{"serve-http", []matSpec{{"pattern1", 1}, {"human_gene1", 1}}, runServeHTTP},
}

// runCtx is everything one workload run needs.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	tr       *tracer // nil with --trace 0
	matrices []matSpec
	outDir   string // scratch files and the trace, inside the checkout
	server   string // spmvserve binary (serve-http)
	report   io.Writer
	// corrupt, when set, is applied to every output vector before it is
	// checked; the self-test uses it to prove that a wrong output is
	// counted as a failed operation.
	corrupt func(y []float64)
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// workingSet is the bytes of matrices and vectors the workload
	// cycles through, largest those of its largest matrix.
	workingSet, largest int64
}

// addWorkingSet counts one matrix's bytes into the working set.
func (o *outcome) addWorkingSet(bytes int64) {
	o.workingSet += bytes
	o.largest = max(o.largest, bytes)
}

// fail records one failed operation with its reason.
func (o *outcome) fail(rc *runCtx, format string, args ...any) {
	o.failed++
	fmt.Fprintf(rc.report, "FAILED: "+format+"\n", args...)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run parses the arguments, runs one workload and prints the report and
// the result line to stdout. corrupt is the self-test's hook (runCtx).
func run(args []string, stdout io.Writer, corrupt func([]float64)) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: tune-cold, solve or serve-http")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 10, "measured seconds")
		trace   = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		scale   = fs.Float64("scale", 1, "multiplies every matrix scale (self-test only)")
		only    = fs.String("matrix", "", "comma-separated subset of the workload's matrices")
		outDir  = fs.String("out", filepath.Join(".bench_build", "perfbench"), "scratch and trace directory")
		server  = fs.String("spmvserve", filepath.Join(".bench_build", "spmvserve"), "spmvserve binary for serve-http")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (want tune-cold, solve or serve-http)", *name)
	}
	if *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds and -scale must be positive and --trace 0 or 1")
	}
	specs, err := selectMatrices(w.matrices, *only, *scale)
	if err != nil {
		return err
	}
	abs, err := filepath.Abs(*outDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	rc := &runCtx{
		workload: w.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		matrices: specs,
		outDir:   abs,
		server:   *server,
		report:   stdout,
		corrupt:  corrupt,
	}
	if *trace == 1 {
		rc.tr = newTracer()
	}

	env := newEnvelope()
	out, err := w.run(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	env.setWorkingSet(w.name, out.workingSet, out.largest)
	if err := env.print(stdout); err != nil {
		return err
	}
	defs := endToEnd
	if rc.tr != nil {
		defs = perLayer
		path := filepath.Join(abs, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := rc.tr.writeFile(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(rc.tr.spans), path)
		c := out.metrics["trace.coverage"]
		fmt.Fprintf(stdout, "trace: layer spans account for %.3f of end-to-end time; within %.0f%%: %v\n",
			c, coverageTolerance*100, math.Abs(c-1) <= coverageTolerance)
	}
	res, err := assemble(defs, out, rc.tr == nil)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// selectMatrices applies the -matrix filter and the -scale multiplier.
// An unknown name is an error, never an empty table.
func selectMatrices(all []matSpec, only string, scale float64) ([]matSpec, error) {
	var names []string
	if only != "" {
		names = strings.Split(only, ",")
	}
	for _, n := range names {
		if !slices.ContainsFunc(all, func(s matSpec) bool { return s.name == n }) {
			return nil, fmt.Errorf("unknown matrix %q for this workload", n)
		}
	}
	var out []matSpec
	for _, s := range all {
		if names == nil || slices.Contains(names, s.name) {
			out = append(out, matSpec{s.name, s.scale * scale})
		}
	}
	return out, nil
}

// assemble turns a workload's measurements into the result line: every
// defined metric, with per-layer metrics the workload does not touch at
// 0. A metric the workload reports outside defs is an error, and so is
// a missing or non-positive end-to-end metric (positive set).
func assemble(defs []metricDef, out *outcome, positive bool) (result, error) {
	var extra []string
	for n := range out.metrics {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.name == n }) {
			extra = append(extra, n)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return result{}, fmt.Errorf("workload reported undefined metrics %v", extra)
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := out.metrics[d.name]
		if positive && !(v > 0) {
			return result{}, fmt.Errorf("metric %s is %v, want a positive measurement", d.name, v)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res, nil
}

// randVec is n seeded values in [0.5, 1.5).
func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.5 + rng.Float64()
	}
	return v
}

// csrBytes is a CSR matrix's storage plus its x and y vectors.
func csrBytes(rows, cols, nnz int) int64 {
	return int64(nnz)*12 + int64(rows+1)*8 + int64(rows+cols)*8
}

// reportDist prints a sample's size and percentiles, so that every
// timing can be read with its sample count and spread.
func reportDist(w io.Writer, name string, v []float64, scale float64, unit string) {
	fmt.Fprintf(w, "%s: n=%d p10=%.4g p50=%.4g p90=%.4g p99=%.4g %s\n", name, len(v),
		percentile(v, 10)*scale, percentile(v, 50)*scale,
		percentile(v, 90)*scale, percentile(v, 99)*scale, unit)
}
