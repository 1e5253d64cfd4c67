package kernels

import (
	"github.com/sparsekit/spmvtuner/internal/formats"
)

// Precision-reduced kernels. The stored value stream is float32 (half
// the bytes of the f64 formats — the MB-class win) and every product
// and accumulation is float64, so the parallel engine's row (or chunk)
// partitioning carries over unchanged.

// PrecCSRRange is the scalar precision-reduced CSR kernel over a row
// range.
//
//spmv:hotpath
func PrecCSRRange(p *formats.PrecCSR, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var sum float64
		for j := p.RowPtr[i]; j < p.RowPtr[i+1]; j++ {
			sum += float64(p.Val[j]) * x[p.ColInd[j]]
		}
		y[i] = sum
	}
}

// PrecCSRVector8Range is the eight-accumulator form of PrecCSRRange —
// the precision analogue of CSRVector8Range, mirroring an 8-lane SIMD
// unit on the narrowed value stream.
//
//spmv:hotpath
func PrecCSRVector8Range(p *formats.PrecCSR, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		jlo, jhi := p.RowPtr[i], p.RowPtr[i+1]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		j := jlo
		for ; j+8 <= jhi; j += 8 {
			s0 += float64(p.Val[j]) * x[p.ColInd[j]]
			s1 += float64(p.Val[j+1]) * x[p.ColInd[j+1]]
			s2 += float64(p.Val[j+2]) * x[p.ColInd[j+2]]
			s3 += float64(p.Val[j+3]) * x[p.ColInd[j+3]]
			s4 += float64(p.Val[j+4]) * x[p.ColInd[j+4]]
			s5 += float64(p.Val[j+5]) * x[p.ColInd[j+5]]
			s6 += float64(p.Val[j+6]) * x[p.ColInd[j+6]]
			s7 += float64(p.Val[j+7]) * x[p.ColInd[j+7]]
		}
		var tail float64
		for ; j < jhi; j++ {
			tail += float64(p.Val[j]) * x[p.ColInd[j]]
		}
		y[i] = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)) + tail
	}
}

// PrecCSRBlockRange computes rows [lo, hi) of Y = A*X for k interleaved
// right-hand sides from the reduced storage, streaming the 4-byte
// value array once per block (the intensity lift of CSRBlockRange on
// half the matrix bytes). The output row is the accumulator, as in the
// generic-k f64 tail.
//
//spmv:hotpath
func PrecCSRBlockRange(p *formats.PrecCSR, x, y []float64, k, lo, hi int) {
	if k == 1 {
		PrecCSRRange(p, x, y, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		yr := y[i*k : i*k+k]
		for l := range yr {
			yr[l] = 0
		}
		for j := p.RowPtr[i]; j < p.RowPtr[i+1]; j++ {
			v := float64(p.Val[j])
			xr := x[int(p.ColInd[j])*k:][:k]
			for l := range yr {
				yr[l] += v * xr[l]
			}
		}
	}
}

// PrecSellCSRange computes the rows of precision-reduced SELL-C-σ
// chunks [lo, hi), writing each real row's dot product to y[original
// row] through the permutation; chunks own disjoint rows, so chunk
// ranges stay synchronization-free.
//
//spmv:hotpath
func PrecSellCSRange(p *formats.PrecSellCS, x, y []float64, lo, hi int) {
	c := p.C
	for k := lo; k < hi; k++ {
		ptr := p.ChunkPtr[k]
		base := k * c
		rows := c
		if base+rows > p.NRows {
			rows = p.NRows - base
		}
		for r := 0; r < rows; r++ {
			var sum float64
			at := ptr + int64(r)
			for j := int32(0); j < p.RowLen[base+r]; j++ {
				sum += float64(p.Vals[at]) * x[p.Cols[at]]
				at += int64(c)
			}
			y[p.Perm[base+r]] = sum
		}
	}
}

// PrecSellCSBlockRange is the blocked multi-RHS form of
// PrecSellCSRange for k interleaved right-hand sides.
//
//spmv:hotpath
func PrecSellCSBlockRange(p *formats.PrecSellCS, x, y []float64, k, lo, hi int) {
	c := p.C
	for ch := lo; ch < hi; ch++ {
		base := ch * c
		rows := c
		if base+rows > p.NRows {
			rows = p.NRows - base
		}
		for r := 0; r < rows; r++ {
			yr := y[int(p.Perm[base+r])*k:][:k]
			for l := range yr {
				yr[l] = 0
			}
			at := p.ChunkPtr[ch] + int64(r)
			for j := int32(0); j < p.RowLen[base+r]; j++ {
				v := float64(p.Vals[at])
				xr := x[int(p.Cols[at])*k:][:k]
				for l := range yr {
					yr[l] += v * xr[l]
				}
				at += int64(c)
			}
		}
	}
}

// PrecSSSRange computes rows [lo, hi) of the precision-reduced
// symmetric kernel under the SSSRange contract: y[i] gets the diagonal
// (kept f64) plus lower-triangle dot product, the mirrored
// contribution to a row c ≥ lo adds into y[c] and one to c < lo into
// window[c-base], and the caller zeroes window[0 : lo-base) before the
// pass.
//
//spmv:hotpath
func PrecSSSRange(p *formats.PrecSSS, x, y, window []float64, base, lo, hi int) {
	for i := lo; i < hi; i++ {
		xi := x[i]
		sum := p.Diag[i] * xi
		cols := p.ColInd[p.RowPtr[i]:p.RowPtr[i+1]]
		vals := p.Val[p.RowPtr[i]:p.RowPtr[i+1]]
		vals = vals[:len(cols)]
		if len(cols) > 0 && int(cols[0]) < lo {
			for j, c := range cols {
				v := float64(vals[j])
				sum += v * x[c]
				if int(c) < lo {
					window[int(c)-base] += v * xi
				} else {
					y[c] += v * xi
				}
			}
		} else {
			for j, c := range cols {
				v := float64(vals[j])
				sum += v * x[c]
				y[c] += v * xi
			}
		}
		y[i] = sum
	}
}

// PrecSSSBlockRange is the blocked multi-RHS form of PrecSSSRange for k
// interleaved right-hand sides, under the SSSBlockRange window layout;
// the caller zeroes window[0 : (lo-base)*k).
//
//spmv:hotpath
func PrecSSSBlockRange(p *formats.PrecSSS, x, y, window []float64, k, base, lo, hi int) {
	for i := lo; i < hi; i++ {
		d := p.Diag[i]
		xi := x[i*k : i*k+k]
		yi := y[i*k : i*k+k]
		for l := range yi {
			yi[l] = d * xi[l]
		}
		cols := p.ColInd[p.RowPtr[i]:p.RowPtr[i+1]]
		vals := p.Val[p.RowPtr[i]:p.RowPtr[i+1]]
		vals = vals[:len(cols)]
		mixed := len(cols) > 0 && int(cols[0]) < lo
		for j, col := range cols {
			c := int(col)
			v := float64(vals[j])
			xc := x[c*k:][:k]
			var dst []float64
			if mixed && c < lo {
				dst = window[(c-base)*k:][:k]
			} else {
				dst = y[c*k:][:k]
			}
			for l := range yi {
				yi[l] += v * xc[l]
				dst[l] += v * xi[l]
			}
		}
	}
}

// PrecVariant selects the precision-reduced CSR range kernel by the
// vectorize flag (no assembly bodies exist yet for the f32 stream;
// both forms are pure Go) and names it for plan provenance.
func PrecVariant(vectorize bool) (func(p *formats.PrecCSR, x, y []float64, lo, hi int), string) {
	if vectorize {
		return PrecCSRVector8Range, "prec-csr-vec8"
	}
	return PrecCSRRange, "prec-csr"
}
