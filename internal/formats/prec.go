package formats

import (
	"math"
)

// Precision-reduced value storage: the MB-class bandwidth lever that
// halves the dominant value stream. A format's float32 instance is its
// f64 conversion's structure (row pointers, columns, chunk geometry,
// permutation, diagonal) plus NarrowF32 of its values; every loop
// shape has one body generic over Value, so kernels always accumulate
// in float64 and only the stored payload narrows. A matrix is reduced
// only when FitsF32 accepts its values: callers check first and keep
// the f64 form otherwise, so a finite f64 that overflows or underflows
// float32 never turns silently into ±Inf or 0.

// Value is the stored value type a kernel body is instantiated over.
// The float32 instance computes the same products in the same order as
// the float64 instance run on float64(float32(v)) values, so its
// results are bit-identical to that oracle.
//
// Bodies take the value array by pointer (&m.Val for the float64
// instance) and index through it, as a body reading m.Val does: the
// float64 instances then compile to the element loops of float64-only
// bodies. A slice parameter stays live across the loops, and in the
// symmetric body it made the register allocator spill the loop index.
type Value interface{ float32 | float64 }

// F32EntryBound is the per-entry relative storage error the f32 form
// tolerates. float32 rounding of a normal-range value is below
// 2^-24 ≈ 6e-8 relative, so in practice only values beyond float32's
// range or deep in its subnormals exceed it.
const F32EntryBound = 1e-6

// FitsF32 reports whether every finite value's float32 image stays
// finite and within F32EntryBound relative error of it. NaN and ±Inf
// fit: float32 has the same specials. SSS and SELL-C-σ store the same
// value set as CSR (plus exact zeros), so one check on a CSR's Val
// covers all three reduced formats.
func FitsF32(vals []float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		w := float64(float32(v))
		if math.IsInf(w, 0) || math.Abs(v-w) > F32EntryBound*math.Abs(v) {
			return false
		}
	}
	return true
}

// NarrowF32 returns the float32 image of every value: the value array
// of a format's float32 instance. Its images are within F32EntryBound
// of vals only when FitsF32(vals) holds.
func NarrowF32(vals []float64) []float32 {
	out := make([]float32, len(vals))
	for i, v := range vals {
		out[i] = float32(v)
	}
	return out
}
