// Package bounds implements the per-class performance upper bounds of
// Section III-B. For each bottleneck class the paper derives the
// maximum performance attainable if that bottleneck were completely
// eliminated; comparing the baseline against these bounds is what
// drives the profile-guided classifier (Fig 4).
//
//	P_MB   — bandwidth roof: traffic floor over STREAM bandwidth
//	P_ML   — micro-benchmark: irregular x accesses made regular
//	P_IMB  — median (not mean) thread time of the baseline run
//	P_CMP  — micro-benchmark: indirect references eliminated entirely
//	P_peak — format-independent roof: only matrix values move
package bounds

import (
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/stats"
)

// Bounds holds the baseline performance and every per-class upper
// bound for one matrix on one platform, in Gflop/s.
type Bounds struct {
	PCSR  float64
	PMB   float64
	PML   float64
	PIMB  float64
	PCMP  float64
	Ppeak float64

	// Baseline retains the baseline run (its per-thread times feed
	// P_IMB and later diagnostics).
	Baseline ex.Result
}

// Measure computes all bounds for m on the executor's platform.
func Measure(e ex.Executor, m *matrix.CSR) Bounds {
	var b Bounds
	flops := m.Flops()

	// Baseline CSR run (static nnz-balanced, no optimizations).
	b.Baseline = e.Run(ex.Config{Matrix: m})
	b.PCSR = b.Baseline.Gflops

	// P_ML: convert irregular accesses to regular ones.
	b.PML = e.Run(ex.Config{Matrix: m, Probe: ex.ProbeML}).Gflops

	// P_CMP: eliminate indirect memory references entirely.
	b.PCMP = e.Run(ex.Config{Matrix: m, Probe: ex.ProbeCMP}).Gflops

	// P_IMB: median thread time of the baseline. Idle threads (empty
	// partitions on tiny matrices) are excluded so the bound stays
	// finite and meaningful.
	busy := make([]float64, 0, len(b.Baseline.ThreadSeconds))
	for _, t := range b.Baseline.ThreadSeconds {
		if t > 0 {
			busy = append(busy, t)
		}
	}
	if med := stats.Median(busy); med > 0 {
		b.PIMB = flops / med / 1e9
	}

	// P_MB and P_peak: traffic floors over the sustainable bandwidth
	// for this working-set size (footnote 2: bandwidth adjusted
	// upwards for cache-resident matrices).
	ws := m.Bytes() + int64(m.NCols+m.NRows)*8
	bmax := e.Machine().PeakBandwidth(ws)
	sxy := float64(m.NCols+m.NRows) * 8
	b.PMB = flops / ((float64(m.Bytes()) + sxy) / bmax) / 1e9
	sval := float64(m.NNZ()) * 8
	b.Ppeak = flops / ((sval + sxy) / bmax) / 1e9
	return b
}

// Ratios returns the bound-to-baseline ratios the classifier inspects.
func (b Bounds) Ratios() (ml, imb float64) {
	if b.PCSR <= 0 {
		return 0, 0
	}
	return b.PML / b.PCSR, b.PIMB / b.PCSR
}
