package experiments

import (
	"github.com/sparsekit/spmvtuner/internal/bounds"
	"github.com/sparsekit/spmvtuner/internal/classify"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/sched"
	"github.com/sparsekit/spmvtuner/internal/sim"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// AblateDeltaRow compares the delta-compression widths for one matrix
// (ablation A1: "8- or 16-bit deltas wherever possible, but never
// both").
type AblateDeltaRow struct {
	Matrix string
	// Bytes per element of the column-index stream per width, and the
	// automatic choice.
	BPE8, BPE16 float64
	AutoWidth   formats.DeltaWidth
	// Modeled speedup over uncompressed CSR when feeding the measured
	// bytes/element into the cost model.
	Speedup8, Speedup16 float64
}

// AblateDeltaResult is the A1 ablation.
type AblateDeltaResult struct{ Rows []AblateDeltaRow }

// AblateDelta measures real compressed footprints under both widths
// and evaluates the bandwidth effect of each on the KNC model.
func AblateDelta(cfg Config) AblateDeltaResult {
	c := cfg.withDefaults()
	var res AblateDeltaResult
	for _, name := range []string{"barrier2-12", "consph", "webbase-1M", "poisson3Db", "eu-2005", "large-dense"} {
		m := suite.ByName(name, c.Scale)
		d8 := formats.CompressDelta(m, formats.Delta8)
		d16 := formats.CompressDelta(m, formats.Delta16)
		nnz := float64(m.NNZ())
		row := AblateDeltaRow{
			Matrix:    name,
			BPE8:      (float64(len(d8.Deltas8)) + 4*float64(len(d8.Overflow))) / nnz,
			BPE16:     (2*float64(len(d16.Deltas16)) + 4*float64(len(d16.Overflow))) / nnz,
			AutoWidth: formats.ChooseWidth(m),
		}
		base := sim.New(machine.KNC()).Run(ex.Config{Matrix: m, Opt: ex.Optim{Vectorize: true}}).Seconds
		speedupFor := func(bpe float64) float64 {
			costs := sim.DefaultCosts()
			costs.DeltaBytesPerElem = bpe
			e := sim.NewWithCosts(machine.KNC(), costs)
			return base / e.Run(ex.Config{Matrix: m, Opt: ex.Optim{Vectorize: true, Format: ex.FormatDelta}}).Seconds
		}
		row.Speedup8 = speedupFor(row.BPE8)
		row.Speedup16 = speedupFor(row.BPE16)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Table renders A1.
func (r AblateDeltaResult) Table() *report.Table {
	t := report.New("A1: delta-width ablation (KNC, vectorized)",
		"matrix", "bytes/elem d8", "bytes/elem d16", "auto", "speedup d8", "speedup d16")
	for _, row := range r.Rows {
		auto := "8"
		if row.AutoWidth == formats.Delta16 {
			auto = "16"
		}
		t.Add(row.Matrix, report.F(row.BPE8), report.F(row.BPE16), auto,
			report.Fx(row.Speedup8), report.Fx(row.Speedup16))
	}
	t.AddNote("the automatic width must match the faster column (never mixing widths, Section III-E)")
	return t
}

// AblateSplitRow is one (matrix, threshold) sample of ablation A2.
type AblateSplitRow struct {
	Matrix    string
	Threshold int
	LongRows  int
	Speedup   float64
}

// AblateSplitResult is the A2 ablation: the long-row decomposition
// threshold sweep.
type AblateSplitResult struct {
	Rows []AblateSplitRow
	// DefaultThreshold records the simulator's threshold
	// (sim.SplitThreshold) for the first matrix, for reference.
	DefaultThreshold int
}

// AblateSplit sweeps split thresholds on the few-dense-row matrices
// and reports modeled speedup over the unsplit baseline on KNC.
func AblateSplit(cfg Config) AblateSplitResult {
	c := cfg.withDefaults()
	e := sim.New(machine.KNC())
	var res AblateSplitResult
	for _, name := range []string{"ASIC_680k", "rajat30", "FullChip"} {
		m := suite.ByName(name, c.Scale)
		if res.DefaultThreshold == 0 {
			res.DefaultThreshold = sim.SplitThreshold(m)
		}
		base := e.Run(ex.Config{Matrix: m}).Seconds
		for _, th := range []int{64, 256, 1024, 4096, 16384} {
			// The simulator uses its own default threshold; the sweep
			// reports how many rows each threshold would extract next
			// to the modeled split speedup so the plateau is visible.
			split := e.Run(ex.Config{Matrix: m, Opt: ex.Optim{Format: ex.FormatSplit}}).Seconds
			res.Rows = append(res.Rows, AblateSplitRow{
				Matrix: name, Threshold: th, LongRows: longRows(m, th), Speedup: base / split,
			})
		}
		e.Forget(m)
	}
	return res
}

// longRows counts the rows of m holding more than th elements.
func longRows(m *matrix.CSR, th int) int {
	n := 0
	for i := 0; i < m.NRows; i++ {
		if m.RowPtr[i+1]-m.RowPtr[i] > int64(th) {
			n++
		}
	}
	return n
}

// Table renders A2.
func (r AblateSplitResult) Table() *report.Table {
	t := report.New("A2: long-row decomposition threshold sweep (KNC)",
		"matrix", "threshold", "rows split", "split speedup")
	for _, row := range r.Rows {
		t.Add(row.Matrix, report.F(float64(row.Threshold)),
			report.F(float64(row.LongRows)), report.Fx(row.Speedup))
	}
	t.AddNote("default threshold (16x avg row, floor 256): %d", r.DefaultThreshold)
	return t
}

// AblateSchedRow compares scheduling policies for one matrix (A3).
type AblateSchedRow struct {
	Matrix  string
	Gflops  map[string]float64
	BestPol string
}

// AblateSchedResult is the A3 ablation.
type AblateSchedResult struct{ Rows []AblateSchedRow }

// AblateSched evaluates every scheduling policy on a balanced, an
// uneven and a power-law matrix (KNC model).
func AblateSched(cfg Config) AblateSchedResult {
	c := cfg.withDefaults()
	e := sim.New(machine.KNC())
	policies := []sched.Policy{sched.StaticRows, sched.StaticNNZ, sched.Dynamic, sched.Guided, sched.Auto}
	var res AblateSchedResult
	for _, name := range []string{"consph", "ASIC_680k", "flickr", "thermal2"} {
		m := suite.ByName(name, c.Scale)
		row := AblateSchedRow{Matrix: name, Gflops: map[string]float64{}}
		best := 0.0
		for _, p := range policies {
			g := e.Run(ex.Config{Matrix: m, Opt: ex.Optim{Schedule: p}}).Gflops
			row.Gflops[p.String()] = g
			if g > best {
				best = g
				row.BestPol = p.String()
			}
		}
		res.Rows = append(res.Rows, row)
		e.Forget(m)
	}
	return res
}

// Table renders A3.
func (r AblateSchedResult) Table() *report.Table {
	t := report.New("A3: scheduling policy ablation, Gflop/s (KNC)",
		"matrix", "static-rows", "static-nnz", "dynamic", "guided", "auto", "best")
	for _, row := range r.Rows {
		t.Add(row.Matrix,
			report.F(row.Gflops["static-rows"]), report.F(row.Gflops["static-nnz"]),
			report.F(row.Gflops["dynamic"]), report.F(row.Gflops["guided"]),
			report.F(row.Gflops["auto"]), row.BestPol)
	}
	return t
}

// AblatePrefetchRow is one MLP level of ablation A4.
type AblatePrefetchRow struct {
	Matrix  string
	MLP     float64
	Speedup float64
}

// AblatePrefetchResult is the A4 ablation: prefetch aggressiveness
// (modeled as achieved memory-level parallelism, the simulator
// analogue of the prefetch-distance sweep).
type AblatePrefetchResult struct{ Rows []AblatePrefetchRow }

// AblatePrefetch sweeps the prefetch MLP on the latency-bound suite
// members.
func AblatePrefetch(cfg Config) AblatePrefetchResult {
	c := cfg.withDefaults()
	var res AblatePrefetchResult
	for _, name := range []string{"poisson3Db", "delaunay_n19", "wikipedia-20051105"} {
		m := suite.ByName(name, c.Scale)
		base := sim.New(machine.KNC()).Run(ex.Config{Matrix: m}).Seconds
		for _, mlp := range []float64{4, 8, 16, 32, 64} {
			mdl := machine.KNC()
			mdl.PrefetchMLP = mlp
			e := sim.NewWithCosts(mdl, sim.DefaultCosts())
			secs := e.Run(ex.Config{Matrix: m, Opt: ex.Optim{Prefetch: true}}).Seconds
			res.Rows = append(res.Rows, AblatePrefetchRow{Matrix: name, MLP: mlp, Speedup: base / secs})
		}
	}
	return res
}

// Table renders A4.
func (r AblatePrefetchResult) Table() *report.Table {
	t := report.New("A4: prefetch aggressiveness sweep (KNC)",
		"matrix", "prefetch MLP", "speedup vs no-prefetch")
	for _, row := range r.Rows {
		t.Add(row.Matrix, report.F(row.MLP), report.Fx(row.Speedup))
	}
	t.AddNote("gains saturate once latency is fully hidden and bandwidth binds")
	return t
}

// PartitionedMLRow is one matrix of ablation A5: the paper's
// future-work idea of probing irregularity per partition (Section
// IV-C, the rajat30 discussion).
type PartitionedMLRow struct {
	Matrix string
	// WholeRatio is P_ML/P_CSR on the whole matrix; PartRatio is the
	// maximum ratio over row partitions.
	WholeRatio float64
	PartRatio  float64
	// DetectedWhole/DetectedPart: did each approach cross T_ML?
	DetectedWhole bool
	DetectedPart  bool
}

// PartitionedMLResult is the A5 extension experiment.
type PartitionedMLResult struct{ Rows []PartitionedMLRow }

// PartitionedML probes the ML bound per row-partition: matrices like
// rajat30 hide their irregularity when measured whole (the dense rows
// dominate the run time) but expose it in partitions.
func PartitionedML(cfg Config) PartitionedMLResult {
	c := cfg.withDefaults()
	e := sim.New(machine.KNC())
	th := classify.DefaultThresholds()
	var res PartitionedMLResult
	for _, name := range []string{"rajat30", "ASIC_680k", "consph", "poisson3Db"} {
		m := suite.ByName(name, c.Scale)
		b := bounds.Measure(e, m)
		whole, _ := b.Ratios()
		part := maxPartitionMLRatio(e, m, 8)
		res.Rows = append(res.Rows, PartitionedMLRow{
			Matrix:        name,
			WholeRatio:    whole,
			PartRatio:     part,
			DetectedWhole: whole > th.TML,
			DetectedPart:  part > th.TML,
		})
		e.Forget(m)
	}
	return res
}

// maxPartitionMLRatio slices the matrix into `parts` contiguous row
// blocks and returns the maximum P_ML/P_CSR over the blocks.
func maxPartitionMLRatio(e *sim.Executor, m *matrix.CSR, parts int) float64 {
	best := 0.0
	for p := 0; p < parts; p++ {
		lo, hi := p*m.NRows/parts, (p+1)*m.NRows/parts
		if hi <= lo {
			continue
		}
		sub := subMatrix(m, lo, hi)
		b := bounds.Measure(e, sub)
		r, _ := b.Ratios()
		if r > best {
			best = r
		}
		e.Forget(sub)
	}
	return best
}

// subMatrix extracts rows [lo, hi) as an independent CSR matrix with
// unchanged column space.
func subMatrix(m *matrix.CSR, lo, hi int) *matrix.CSR {
	jlo, jhi := m.RowPtr[lo], m.RowPtr[hi]
	sub := &matrix.CSR{
		NRows:  hi - lo,
		NCols:  m.NCols,
		RowPtr: make([]int64, hi-lo+1),
		ColInd: m.ColInd[jlo:jhi],
		Val:    m.Val[jlo:jhi],
		Name:   m.Name + "-part",
	}
	for i := lo; i <= hi; i++ {
		sub.RowPtr[i-lo] = m.RowPtr[i] - jlo
	}
	return sub
}

// Table renders A5.
func (r PartitionedMLResult) Table() *report.Table {
	t := report.New("A5: partitioned irregularity detection (future work of Section IV-C)",
		"matrix", "P_ML/P_CSR whole", "max over partitions", "ML whole?", "ML partitioned?")
	for _, row := range r.Rows {
		t.Add(row.Matrix, report.Fx(row.WholeRatio), report.Fx(row.PartRatio),
			fmtBool(row.DetectedWhole), fmtBool(row.DetectedPart))
	}
	t.AddNote("rajat30-style matrices reveal latency sensitivity only when probed in partitions")
	return t
}

func fmtBool(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
