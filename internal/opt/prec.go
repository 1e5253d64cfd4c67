package opt

import (
	"math"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/matrix"
)

// Reduced-precision value storage is an opt-in optimization: it only
// enters the candidate space when the caller grants an accuracy budget
// (a componentwise relative error the application tolerates), and it is
// only proposed for bandwidth-bound configurations — f32 halves the
// value stream, so on a compute- or latency-bound matrix it can only
// lose. Every proposal is additionally checked against the f64
// reference on this exact matrix: the documented per-entry bound is a
// storage contract, and the measured probe confirms the assembled
// result honors the budget before the planner commits.

// PrecisionCandidates lists the reduced-precision variants the
// accuracy budget admits: f32 from a budget of formats.F32EntryBound
// up, nothing below it.
func PrecisionCandidates(budget float64) []ex.Precision {
	if budget >= formats.F32EntryBound {
		return []ex.Precision{ex.PrecF32}
	}
	return nil
}

// probeSlackULPs widens the probe tolerance by a few units of f64
// roundoff per row scale: the reduced and reference walks round their
// partial sums differently.
const probeSlackULPs = 32

// PrecisionWithinBudget measures the variant's actual error on this
// matrix against the f64 reference: one deterministic probe vector, the
// full-precision product and its componentwise magnitude scale
// Σ_j |a_ij·x_j| in one CSR walk, then the product of the float32
// instance the engine binds. Every finite row must satisfy
//
//	|y_i − ref_i| ≤ (budget + 32·ε₆₄)·Σ_j |a_ij·x_j|
//
// Rows whose reference is non-finite (NaN/Inf inputs) are excluded —
// float32 stores those specials faithfully. A matrix whose values do
// not fit float32 (formats.FitsF32) is refused before the probe: the
// engine runs its f64 binding, so reduced precision cannot pay there.
func PrecisionWithinBudget(m *matrix.CSR, prec ex.Precision, budget float64) bool {
	if prec != ex.PrecF32 || budget < formats.F32EntryBound || !formats.FitsF32(m.Val) {
		return false
	}
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + 0.25*float64(i%5)
	}
	ref := make([]float64, m.NRows)
	scale := make([]float64, m.NRows)
	for i := 0; i < m.NRows; i++ {
		var sum, sc float64
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			t := m.Val[j] * x[m.ColInd[j]]
			sum += t
			sc += math.Abs(t)
		}
		ref[i], scale[i] = sum, sc
	}
	val := formats.NarrowF32(m.Val)
	y := make([]float64, m.NRows)
	kernels.CSRRows(m, &val, x, y, 0, m.NRows)
	tol := budget + probeSlackULPs*0x1p-52
	for i := range y {
		if math.IsNaN(ref[i]) || math.IsInf(ref[i], 0) {
			continue
		}
		if math.Abs(y[i]-ref[i]) > tol*scale[i] {
			return false
		}
	}
	return true
}

// probeSeconds prices the measured error probe: the f64 reference walk
// plus the conversion + reduced multiply, about two streaming sweeps.
func probeSeconds(m *matrix.CSR, e ex.Executor) float64 {
	return 2 * sweepSeconds(m, e.Machine())
}

// precCandidate folds variant p into o, trading delta compression away
// when it is what blocks the reduced stream: DeltaCSR and the f32
// stream are alternative MB levers over the same element bytes (the
// reduced stream saves 4 bytes per entry where delta saves ~3 on the
// index side, and they do not compose today), so a configuration whose
// format is Delta retries as CSR. Returns ok=false when the
// configuration still cannot honor p (Split format, bound kernels).
func precCandidate(o ex.Optim, p ex.Precision) (ex.Optim, bool) {
	cand := o
	cand.Precision = p
	if cand.EffectivePrecision() != p && cand.Format == ex.FormatDelta {
		cand.Format = ex.FormatCSR
	}
	return cand, cand.EffectivePrecision() == p
}

// ApplyPrecision folds the strongest in-budget reduced-precision
// variant into the configuration: the first candidate the knob set can
// honor (possibly trading delta compression for the reduced stream —
// see precCandidate) whose measured probe error fits the budget wins;
// an empty budget or no fitting variant returns o unchanged. This is
// the classifier-side selection: callers gate it on the MB class, the
// executor-driven oracle uses bestPrecisionFrom instead.
func ApplyPrecision(m *matrix.CSR, o ex.Optim, budget float64) ex.Optim {
	for _, p := range PrecisionCandidates(budget) {
		cand, ok := precCandidate(o, p)
		if !ok {
			continue
		}
		if PrecisionWithinBudget(m, p, budget) {
			return cand
		}
	}
	return o
}

// precisionWinMargin is the measured-improvement gate for executors
// without an analytic breakdown: a reduced variant must beat the f64
// winner by at least this factor, so measurement noise cannot flip a
// compute-bound matrix into reduced precision.
const precisionWinMargin = 0.98

// hasBreakdown reports whether the executor filled the analytic time
// decomposition (the cost model and the calibrated twin do; measuring
// executors return it zero-valued).
func hasBreakdown(b ex.Breakdown) bool {
	return b.ComputeSeconds > 0 || b.BandwidthSeconds > 0 ||
		b.LatencySeconds > 0 || b.GlobalBWSeconds > 0
}

// bestPrecisionFrom sweeps the in-budget precision variants of an
// already-chosen winner, mirroring the block-width post-pass: the f64
// winner's time is the baseline, each variant is priced like any other
// measured candidate, and a variant is kept only when (a) the f64
// configuration is bandwidth bound — by the analytic breakdown when
// the executor provides one, by a clear measured win otherwise — and
// (b) the measured probe confirms the error budget on this matrix.
// Returns the (possibly updated) winner, its per-iteration time, and
// the preprocessing cost of the pass.
func bestPrecisionFrom(e ex.Executor, m *matrix.CSR, best ex.Optim, bestSecs float64, budget float64) (ex.Optim, float64, float64) {
	cands := PrecisionCandidates(budget)
	if len(cands) == 0 {
		return best, bestSecs, 0
	}
	base := e.Run(ex.Config{Matrix: m, Opt: best})
	pre := measureIters * base.Seconds
	if hasBreakdown(base.Breakdown) && base.Breakdown.Binding() != "bandwidth" {
		// The analytic model says matrix bytes are not the limiter:
		// halving them cannot pay, so no variant is even measured.
		return best, bestSecs, pre
	}
	win, winSecs := best, bestSecs
	for _, p := range cands {
		cand, ok := precCandidate(best, p)
		if !ok {
			continue
		}
		r := e.Run(ex.Config{Matrix: m, Opt: cand})
		pre += sweepSeconds(m, e.Machine()) + measureIters*r.Seconds
		if r.Seconds >= winSecs*precisionWinMargin {
			continue
		}
		pre += probeSeconds(m, e)
		if !PrecisionWithinBudget(m, p, budget) {
			continue
		}
		win, winSecs = cand, r.Seconds
	}
	return win, winSecs, pre
}
