// Mirrors the code samples of README.md, docs/guide/platforms.md,
// docs/guide/formats.md, docs/guide/batching.md, docs/guide/symmetry.md,
// docs/guide/plans.md, docs/guide/serving.md, docs/guide/twin.md,
// docs/guide/lint.md, docs/guide/simd.md and docs/guide/precision.md
// so the documented API
// cannot drift without breaking the build: every call here appears in
// a published snippet.
package spmvtuner_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/sparsekit/spmvtuner"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/lint"
	"github.com/sparsekit/spmvtuner/internal/lint/analysis"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/opt"
	"github.com/sparsekit/spmvtuner/internal/plan"
	"github.com/sparsekit/spmvtuner/internal/sim"
)

// TestReadmeQuickStart exercises the README quick-start flow (with a
// generated matrix standing in for the .mtx file).
func TestReadmeQuickStart(t *testing.T) {
	m, err := spmvtuner.SuiteMatrix("poisson3Db", 0.02)
	if err != nil {
		t.Fatal(err)
	}

	tuner := spmvtuner.NewTuner()
	defer tuner.Close()

	tuned := tuner.Tune(m)
	if tuned.Classes() == "" || tuned.Optimizations() == "" {
		t.Fatalf("empty diagnosis: %q %q", tuned.Classes(), tuned.Optimizations())
	}

	x := make([]float64, m.Cols())
	y := make([]float64, m.Rows())
	tuned.MulVec(x, y)

	// Batch serving shape.
	tuned.MulVecBatch([][]float64{x}, [][]float64{y})
}

// TestPlatformsGuideSamples exercises the modeled-platform guide:
// analysis on each codename, modeled planning with native execution,
// and the host calibration path.
func TestPlatformsGuideSamples(t *testing.T) {
	m, err := spmvtuner.SuiteMatrix("poisson3Db", 0.02)
	if err != nil {
		t.Fatal(err)
	}

	for _, code := range []string{"knc", "knl", "bdw", "host"} {
		a := spmvtuner.NewTuner(spmvtuner.OnPlatform(code)).Analyze(m)
		if a.Classes == "" || a.Optimizations == "" {
			t.Fatalf("%s: empty analysis %+v", code, a)
		}
	}

	// Modeled analysis, native execution.
	tu := spmvtuner.NewTuner(spmvtuner.OnPlatform("bdw"))
	defer tu.Close()
	tuned := tu.Tune(m)
	x := make([]float64, m.Cols())
	y := make([]float64, m.Rows())
	tuned.MulVec(x, y)

	// Calibration path (internal packages, as the guide notes).
	mdl := native.CalibratedHost()
	if mdl.StreamMainGBs <= 0 {
		t.Fatalf("calibration produced %g GB/s", mdl.StreamMainGBs)
	}
	_ = sim.New(mdl)
}

// TestBatchingGuideSamples exercises the batching guide: the
// MulVecBatch serving shape, the interleaved MulMat entry point, the
// rule that a batch computes what MulVec does (bit for bit outside a
// register-blocked group, within 1e-12 inside one), and the aliasing
// rule.
func TestBatchingGuideSamples(t *testing.T) {
	m, err := spmvtuner.SuiteMatrix("poisson3Db", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	tuner := spmvtuner.NewTuner()
	defer tuner.Close()
	tuned := tuner.Tune(m)

	// Batch serving: 16 user vectors, two groups of 8 on a CSR float64
	// plan, one by one on any other.
	xs := make([][]float64, 16)
	ys := make([][]float64, 16)
	for i := range xs {
		xs[i] = make([]float64, m.Cols())
		for j := range xs[i] {
			xs[i][j] = float64((i+j)%5) - 2
		}
		ys[i] = make([]float64, m.Rows())
	}
	tuned.MulVecBatch(xs, ys)

	// Interleaved blocks: no packing step.
	const nrhs = 8
	x := make([]float64, m.Cols()*nrhs)
	y := make([]float64, m.Rows()*nrhs)
	for j := 0; j < m.Cols(); j++ {
		for l := 0; l < nrhs; l++ {
			x[j*nrhs+l] = xs[l][j] // x[j*nrhs+l] = element j of vector l
		}
	}
	tuned.MulMat(x, y, nrhs)
	for l := 0; l < nrhs; l++ {
		for i := 0; i < m.Rows(); i++ {
			if y[i*nrhs+l] != ys[l][i] {
				t.Fatalf("MulMat and MulVecBatch disagree at rhs %d row %d", l, i)
			}
		}
	}

	// The rule: every batch result is what MulVec computes.
	yv := make([]float64, m.Rows())
	for l := range xs {
		tuned.MulVec(xs[l], yv)
		for i, want := range yv {
			if math.Abs(ys[l][i]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("MulVecBatch vector %d row %d = %g, MulVec %g", l, i, ys[l][i], want)
			}
		}
	}

	// The aliasing rule: in-place multiplication panics.
	v := make([]float64, m.Cols())
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("aliased MulVec did not panic as the guide promises")
			}
		}()
		tuned.MulVec(v, v)
	}()
}

// TestFormatsGuideSamples exercises the storage-format guide: the
// facade flow on a short-row suite matrix and the direct SELL-C-σ
// conversion with explicit C/σ knobs.
func TestFormatsGuideSamples(t *testing.T) {
	m, err := spmvtuner.SuiteMatrix("webbase-1M", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tuner := spmvtuner.NewTuner()
	defer tuner.Close()
	tuned := tuner.Tune(m)
	x := make([]float64, m.Cols())
	y := make([]float64, m.Rows())
	tuned.MulVec(x, y)

	// Direct conversion path (internal packages, as the guide notes).
	csr := gen.ShortRows(2000, 4, 1)
	s := formats.ConvertSellCSAuto(csr)
	s2 := formats.ConvertSellCS(csr, 8, 256)
	if s.PaddingRatio() < 1 || s2.PaddingRatio() < 1 {
		t.Fatalf("padding ratios %g %g below 1", s.PaddingRatio(), s2.PaddingRatio())
	}
	if formats.DefaultChunkHeight != 8 {
		t.Fatalf("guide documents C=8, code says %d", formats.DefaultChunkHeight)
	}
	if !s.Reassemble().Equal(csr) {
		t.Fatal("guide round-trip promise broken")
	}
}

// TestPlansGuideSamples exercises docs/guide/plans.md: the persistent
// plan-store facade flow (cold tune, restart, warm start), the
// Info().Warm / Info().Fingerprint fields, and the internal
// plan-shipping path (strict decode + PreparePlan validation).
func TestPlansGuideSamples(t *testing.T) {
	m, err := spmvtuner.SuiteMatrix("poisson3Db", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "plans")

	// The guide's WithPlanStore flow.
	tuner := spmvtuner.NewTuner(spmvtuner.WithPlanStore(dir))
	tuned := tuner.Tune(m)
	if tuned.Info().Warm {
		t.Fatal("first ever Tune claims warm")
	}
	if tuned.Info().Fingerprint == "" {
		t.Fatal("no fingerprint on the tuned decision")
	}
	if err := tuner.Close(); err != nil { // flushes the store; idempotent
		t.Fatal(err)
	}

	// "Shipping is cp": a restarted tuner over the same directory
	// warm-starts.
	tuner2 := spmvtuner.NewTuner(spmvtuner.WithPlanStore(dir))
	defer tuner2.Close()
	if !tuner2.Tune(m).Info().Warm {
		t.Fatal("restarted tuner did not warm-start from disk")
	}

	// The guide's plan-consuming path (internal packages, as it
	// notes): read an entry file, decode strictly, validate + prepare.
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("store layout: %v %v", ents, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	e := native.New()
	defer e.Close()
	csr := gen.Poisson2D(40, 40)
	if _, err := e.PreparePlan(csr, pl); err == nil {
		t.Fatal("foreign fingerprint accepted by PreparePlan")
	}
	pl2 := pl
	pl2.Fingerprint = ""
	if _, err := e.PreparePlan(csr, pl2); err != nil {
		t.Fatalf("unbound plan rejected: %v", err)
	}
}

// TestSymmetryGuideSamples exercises docs/guide/symmetry.md: the
// programmatic build + transparent Tune flow, the deterministic
// modeled proposal, and the SSS round-trip promise.
func TestSymmetryGuideSamples(t *testing.T) {
	// The guide's Builder flow: symmetric entries, no annotation.
	n := 600
	b := spmvtuner.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if j := i + 1; j < n {
			b.Add(i, j, -1)
			b.Add(j, i, -1)
		}
	}
	m := b.Build()

	tuner := spmvtuner.NewTuner()
	defer tuner.Close()
	tuned := tuner.Tune(m) // symmetry detected here
	x := make([]float64, m.Cols())
	y := make([]float64, m.Rows())
	tuned.MulVec(x, y)

	// The guide's modeled-analysis sample must stay deterministic.
	wide, err := spmvtuner.SuiteMatrix("sym-fem", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	a := spmvtuner.NewTuner(spmvtuner.OnPlatform("bdw")).Analyze(wide)
	if a.Optimizations != "vec+sym@static-nnz" {
		t.Fatalf("modeled analysis = %q, want the guide's vec+sym@static-nnz", a.Optimizations)
	}

	// Direct conversion path (internal packages, as the guide notes):
	// exact round trip and the roughly-halved byte promise.
	csr := gen.Poisson2D(30, 30)
	s := formats.ConvertSSS(csr)
	if !s.Reassemble().Equal(csr) {
		t.Fatal("SSS round-trip promise broken")
	}
	if s.Bytes() >= csr.Bytes() {
		t.Fatalf("SSS bytes %d not below CSR bytes %d", s.Bytes(), csr.Bytes())
	}
}

// TestTwinGuideSamples exercises docs/guide/twin.md: the
// WithCalibration flow, the Calibration() inspection sample, and the
// Server.CapacityPlan sizing sample — including the restart promise
// that the second Tuner loads the artifact without probing and the
// capacity report is reproducible.
func TestTwinGuideSamples(t *testing.T) {
	m, err := spmvtuner.SuiteMatrix("FEM_3D_thermal2", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	plan := func() (spmvtuner.HostCalibration, spmvtuner.CapacityReport) {
		tuner := spmvtuner.NewTuner(
			spmvtuner.WithCalibration(dir),
			spmvtuner.WithPlanStore(dir),
		)
		defer tuner.Close()

		c := tuner.Calibration()
		if !c.Calibrated || c.MainGBs <= 0 || c.PerCoreGBs <= 0 || c.UsableThreads < 1 {
			t.Fatalf("guide's ceilings sample: %+v", c)
		}

		srv := spmvtuner.NewServer(tuner, spmvtuner.ServerConfig{})
		defer srv.Close()
		if err := srv.Register("thermal", m); err != nil {
			t.Fatal(err)
		}
		rep, err := srv.CapacityPlan([]spmvtuner.CapacityDemand{
			{Name: "thermal", RequestsPerSec: 500},
		}, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Replicas < 1 || (rep.Binding != "compute" && rep.Binding != "bandwidth") {
			t.Fatalf("guide's capacity sample: %+v", rep)
		}
		if len(rep.PerMatrix) != 1 || rep.PerMatrix[0].SecondsPerOp <= 0 {
			t.Fatalf("per-matrix itemization: %+v", rep.PerMatrix)
		}
		return c, rep
	}

	c1, rep1 := plan()
	if !c1.Probed {
		t.Fatal("first calibrated tuner did not probe")
	}
	// "Every later Tuner loads the artifact with zero probe runs" and
	// "the report is identical across restarts".
	c2, rep2 := plan()
	if c2.Probed {
		t.Fatal("second tuner re-probed despite the persisted artifact")
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("capacity report drifted across restarts: %+v vs %+v", rep1, rep2)
	}

	// The guide's unregistered-name promise.
	tuner := spmvtuner.NewTuner(spmvtuner.WithCalibration(dir))
	defer tuner.Close()
	srv := spmvtuner.NewServer(tuner, spmvtuner.ServerConfig{})
	defer srv.Close()
	if _, err := srv.CapacityPlan([]spmvtuner.CapacityDemand{{Name: "ghost", RequestsPerSec: 1}}, 0.7); !errors.Is(err, spmvtuner.ErrNotRegistered) {
		t.Fatalf("unregistered demand: %v", err)
	}
}

// TestServingGuideSamples exercises the docs/guide/serving.md flow:
// server over a tuner, lazy tune + warm, coalesced concurrent
// multiplies, the stats sample, and the sentinel errors the guide
// documents.
func TestServingGuideSamples(t *testing.T) {
	m, err := spmvtuner.SuiteMatrix("FEM_3D_thermal2", 0.01)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	tuner := spmvtuner.NewTuner(spmvtuner.WithPlanStore(dir))
	defer tuner.Close()

	srv := spmvtuner.NewServer(tuner, spmvtuner.ServerConfig{
		MaxBatch:     8,
		MemoryBudget: 1 << 30,
	})
	defer srv.Close()

	if err := srv.Register("thermal", m); err != nil {
		t.Fatal(err)
	}
	if err := srv.Warm("thermal"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := make([]float64, m.Cols())
			for i := range x {
				x[i] = float64((i + c) % 3)
			}
			y := make([]float64, m.Rows())
			if err := srv.MulVec("thermal", x, y); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()

	st, ok := srv.StatsFor("thermal")
	if !ok || st.Requests != 4 || st.MeanBatchWidth < 1 {
		t.Fatalf("stats sample: ok=%v %+v", ok, st)
	}
	if st.Tunes != 1 || st.P99LatencyMicros <= 0 || st.AchievedGflops <= 0 {
		t.Fatalf("stats fields: %+v", st)
	}

	// The guide's sentinel errors.
	y := make([]float64, m.Rows())
	if err := srv.MulVec("ghost", nil, y); !errors.Is(err, spmvtuner.ErrNotRegistered) {
		t.Fatalf("unknown name: %v", err)
	}
	if err := srv.Deregister("thermal"); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := srv.MulVec("thermal", nil, y); !errors.Is(err, spmvtuner.ErrServerClosed) {
		t.Fatalf("closed server: %v", err)
	}
}

// TestSIMDGuideSamples exercises docs/guide/simd.md: the dispatch
// introspection API, the kernel-name suffix rule, the oracle
// differential snippet with its 1e-12 contract, and the KernelISA
// provenance the facade surfaces.
func TestSIMDGuideSamples(t *testing.T) {
	// The guide's introspection sample, and its name/lanes coupling.
	isa, lanes := kernels.ISA(), kernels.ISALanes()
	wantLanes := map[string]int{"avx512": 8, "avx2": 4, "scalar": 1}[isa]
	if wantLanes == 0 || lanes != wantLanes {
		t.Fatalf("ISA %q with %d lanes", isa, lanes)
	}

	// "Never compare kernel names for equality against the unsuffixed
	// form; use a prefix check."
	name := kernels.VariantName(true)
	if !strings.HasPrefix(name, "csr-vec8") {
		t.Fatalf("VariantName = %q", name)
	}
	if isa != "scalar" && !strings.HasSuffix(name, "-"+isa) {
		t.Fatalf("dispatched name %q missing ISA suffix %q", name, isa)
	}

	// The guide's differential snippet: dispatched kernel against the
	// pure-Go oracle, within 1e-12 relative.
	m := gen.UniformRandom(4000, 7, 42)
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = float64(i%9) - 4
	}
	want := make([]float64, m.NRows)
	kernels.CSRVector8Range(m, x, want, 0, m.NRows) // the oracle
	got := make([]float64, m.NRows)
	kernels.Variant(true)(m, x, got, 0, m.NRows) // dispatched
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("oracle contract broken at row %d: %g vs %g", i, got[i], want[i])
		}
	}

	// The delta decoder: named delta-vec8-<isa> (delta on the scalar
	// oracle), equal to MulVecRows, and every host Delta plan reads
	// compress+vec.
	dname := kernels.DeltaVariantName()
	if isa != "scalar" && dname != "delta-vec8-"+isa || isa == "scalar" && dname != "delta" {
		t.Fatalf("DeltaVariantName = %q on ISA %q", dname, isa)
	}
	d := formats.CompressDelta(m, formats.Delta8)
	d.MulVecRows(x, want, 0, d.NRows, 0)
	kernels.DeltaVariant()(d, x, got, 0, d.NRows, 0)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("delta oracle contract broken at row %d: %g vs %g", i, got[i], want[i])
		}
	}
	if s := (ex.Optim{Format: ex.FormatDelta}).Canonical(machine.Host()).String(); s != "compress+vec@static-nnz" {
		t.Fatalf("host Delta plan reads %q", s)
	}

	// The cost model prices vectors at the dispatched width.
	eng := native.New()
	engLanes := eng.Machine().SIMDLanes
	eng.Close()
	if engLanes != lanes {
		t.Fatalf("host model prices %d lanes, dispatch executes %d", engLanes, lanes)
	}

	// Plans carry the winning ISA as provenance (facade sample).
	sm, err := spmvtuner.SuiteMatrix("poisson3Db", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	tuner := spmvtuner.NewTuner()
	defer tuner.Close()
	if got := tuner.Tune(sm).Info().KernelISA; got != isa {
		t.Fatalf("Info().KernelISA = %q, dispatch says %q", got, isa)
	}
}

// TestPrecisionGuideSamples exercises docs/guide/precision.md: the
// budget-gated facade flow, the variant ladder and plan string the
// guide tabulates, the float32 instance sample and its bit identity
// with the float64 instance on rounded values, and the f64 fallback
// rule.
func TestPrecisionGuideSamples(t *testing.T) {
	// The guide's budget-is-the-door sample on a modeled-MB matrix.
	m := buildSymmetric(20000, 40)
	tuner := spmvtuner.NewTuner(
		spmvtuner.OnPlatform("bdw"),
		spmvtuner.WithPrecisionBudget(1e-6),
	)
	defer tuner.Close()
	tuned := tuner.Tune(m)
	if got := tuned.Info().Precision; got != "f32" {
		t.Fatalf("guide's budgeted sample selected %q, want f32", got)
	}
	if got := spmvtuner.NewTuner(spmvtuner.OnPlatform("bdw")).Analyze(m).Precision; got != "f64" {
		t.Fatalf("unbudgeted tuner reports %q, want f64", got)
	}

	// The variant table and ladder: one plan string, one documented
	// bound, and nothing admitted below it.
	if ex.PrecF32.String() != "f32" {
		t.Fatalf("plan string drifted: %q", ex.PrecF32)
	}
	if formats.F32EntryBound != 1e-6 {
		t.Fatalf("documented bound drifted: %g", formats.F32EntryBound)
	}
	if c := opt.PrecisionCandidates(1e-7); len(c) != 0 {
		t.Fatalf("budget below 1e-6 admits %v", c)
	}
	if c := opt.PrecisionCandidates(1e-6); len(c) != 1 || c[0] != ex.PrecF32 {
		t.Fatalf("budget at 1e-6 admits %v, want f32", c)
	}

	// The guide's float32 instance sample (internal packages),
	// including its printed and commented claims.
	csr := gen.UniformRandom(5000, 8, 1)
	if !formats.FitsF32(csr.Val) {
		t.Fatal("guide promises these values fit 1e-6")
	}
	val := formats.NarrowF32(csr.Val)
	y32, y64 := make([]float64, csr.NRows), make([]float64, csr.NRows)
	x := make([]float64, csr.NCols)
	for i := range x {
		x[i] = 1 + 0.25*float64(i%5)
	}
	kernels.CSRRows(csr, &val, x, y32, 0, csr.NRows)
	rounded := csr.Clone()
	for j, v := range val {
		rounded.Val[j] = float64(v)
	}
	kernels.CSRRange(rounded, x, y64, 0, csr.NRows)
	for i := range y32 {
		if y32[i] != y64[i] {
			t.Fatalf("float32 instance y[%d] = %g, float64 instance on rounded values %g", i, y32[i], y64[i])
		}
	}

	// The fallback rule: values f32 cannot hold fail the check, and a
	// budgeted tuner runs and reports f64 for them.
	if formats.FitsF32([]float64{1, 1e300}) || formats.FitsF32([]float64{1e-300}) {
		t.Fatal("guide promises out-of-range and flushed values fail FitsF32")
	}
	if !formats.FitsF32([]float64{math.NaN(), math.Inf(1)}) {
		t.Fatal("guide promises NaN and Inf pass FitsF32")
	}
	big := buildScaledSymmetric(20000, 40, 1e300)
	if got := tuner.Tune(big).Info().Precision; got != "f64" {
		t.Fatalf("matrix holding 1e300 tuned to %q, want f64", got)
	}
}

// TestLintGuideSamples exercises the spmvlint guide: the aliasing
// guard the analyzers enforce is live at runtime, and the analyzer
// suite runs programmatically through the stdlib-only loader.
func TestLintGuideSamples(t *testing.T) {
	m, err := spmvtuner.SuiteMatrix("poisson3Db", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	tuner := spmvtuner.NewTuner()
	defer tuner.Close()
	tuned := tuner.Tune(m)

	// The guide's aliased-call snippet: overlapping x and y panic
	// instead of corrupting the result.
	n := m.Cols()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("aliased MulVec did not panic")
			}
		}()
		buf := make([]float64, n+n/2)
		x, y := buf[:n], buf[n/2:n/2+n] // overlapping
		tuned.MulVec(x, y)              // panics: aliasing guard
	}()

	// The guide's programmatic-run snippet: the full suite over a real
	// package, expecting zero diagnostics.
	ld := analysis.NewLoader()
	pkg, err := ld.CheckDir("internal/matrix", "github.com/sparsekit/spmvtuner/internal/matrix")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range lint.Analyzers() {
		diags, err := pkg.Run(a, analysis.NewFacts())
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if len(diags) != 0 {
			t.Fatalf("%s: unexpected diagnostics: %v", a.Name, diags)
		}
	}
}
