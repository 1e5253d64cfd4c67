package native

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// The fuzz target's knob word, one field per bit range:
//
//	0-2   Vectorize, Prefetch, Unroll
//	3-6   Delta, Split, SELL-C-σ, SSS (fuzzFormats; the strongest set
//	      bit is the format, none is CSR)
//	7-8   schedule (fuzzPolicies)
//	9-10  precision (f64, f32; 2 and 3 read as f64)
//	11-12 block width k (fuzzWidths)
//	13-14 operation: MulVec, MulVecBatch, MulMat (3 reads as MulVec)
//	15    add one full-length row (a dominating row, the long-row
//	      shape the IMB schedules must balance)
//	16-17 threads: 0 prepares through Prepare at the executor's
//	      default width, t > 0 compiles at t+1 threads
var (
	fuzzPolicies = []sched.Policy{sched.StaticNNZ, sched.Dynamic, sched.Guided, sched.Auto}
	fuzzWidths   = []int{1, 2, 4, 8}
	fuzzFormats  = []ex.Format{ex.FormatDelta, ex.FormatSplit, ex.FormatSellCS, ex.FormatSSS}
)

const (
	opMulVec = iota
	opMulVecBatch
	opMulMat
)

// encodeKnobs packs one configuration into the knob word.
func encodeKnobs(o ex.Optim, op, k, threads int, long bool) uint32 {
	var w uint32
	for i, on := range []bool{o.Vectorize, o.Prefetch, o.Unroll} {
		if on {
			w |= 1 << i
		}
	}
	if i := slices.Index(fuzzFormats, o.Format); i >= 0 {
		w |= 1 << (3 + i)
	}
	if long {
		w |= 1 << 15
	}
	w |= uint32(slices.Index(fuzzPolicies, o.Schedule)) << 7
	w |= uint32(o.Precision) << 9
	w |= uint32(slices.Index(fuzzWidths, k)) << 11
	w |= uint32(op) << 13
	return w | uint32(threads)<<16
}

// decodeKnobs inverts encodeKnobs for any word.
func decodeKnobs(w uint32) (o ex.Optim, op, k, threads int, long bool) {
	bit := func(i int) bool { return w>>i&1 == 1 }
	prec := ex.Precision(w >> 9 & 3)
	if prec > ex.PrecF32 {
		prec = ex.PrecF64
	}
	o = ex.Optim{
		Vectorize: bit(0), Prefetch: bit(1), Unroll: bit(2),
		Schedule:  fuzzPolicies[w>>7&3],
		Precision: prec,
	}
	for i, f := range fuzzFormats {
		if bit(3 + i) {
			o.Format = max(o.Format, f)
		}
	}
	return o, int(w >> 13 & 3 % 3), fuzzWidths[w>>11&3], int(w >> 16 & 3), bit(15)
}

// fuzzMatrix builds a square matrix of n rows with up to four random
// entries per row, an optional full-length row, and one entry per
// four bytes of extra (row, 16-bit column, value); sym folds the entries
// onto the lower triangle and mirrors them, annotated as symmetric.
func fuzzMatrix(n int, seed int64, long, sym bool, extra []byte) *matrix.CSR {
	rng := rand.New(rand.NewSource(seed))
	a := make(map[int]float64)
	for i := 0; i < n; i++ {
		for l := rng.Intn(5); l > 0; l-- {
			a[i*n+rng.Intn(n)] += rng.NormFloat64()
		}
	}
	if long {
		r := rng.Intn(n)
		for j := 0; j < n; j++ {
			a[r*n+j] += rng.NormFloat64()
		}
	}
	for ; len(extra) >= 4; extra = extra[4:] {
		i, j := int(extra[0])%n, (int(extra[1])<<8|int(extra[2]))%n
		a[i*n+j] += float64(int8(extra[3])) / 8
	}
	if sym { // fold onto the lower triangle, then mirror
		lower := make(map[int]float64)
		for ij, v := range a {
			lower[max(ij/n, ij%n)*n+min(ij/n, ij%n)] += v
		}
		a = lower
	}
	coo := matrix.NewCOO(n, n)
	for ij, v := range a {
		if i, j := ij/n, ij%n; v != 0 {
			coo.Add(i, j, v)
			if sym && i != j {
				coo.Add(j, i, v)
			}
		}
	}
	m := coo.ToCSR()
	if sym {
		m.Sym = matrix.SymSymmetric
	}
	return m
}

// FuzzPreparedDifferential runs a random configuration of the prepared
// engine — format, SIMD and scheduling knobs, value precision, thread
// count, and the single-vector, batch or blocked entry point — on a
// random matrix, and compares every output against the sequential CSR
// reference: within 1e-12 of each row's magnitude scale at f64, within
// the f32 storage bound under f32.
func FuzzPreparedDifferential(f *testing.F) {
	for i, row := range bindingTable() {
		op, k := i%3, fuzzWidths[i%len(fuzzWidths)]
		f.Add(encodeKnobs(row.o, op, k, 1+i%3, true), uint8(200+i%50), int64(i), []byte{})
	}
	f.Add(encodeKnobs(ex.Optim{Format: ex.FormatSSS, Schedule: sched.Dynamic}, opMulMat, 8, 0, false), uint8(0), int64(1), []byte{0, 0, 0, 9})
	// Column gaps wider than 255 give DeltaCSR overflow entries in
	// every thread's partition.
	var gaps []byte
	for r := 0; r < 256; r += 8 {
		gaps = append(gaps, byte(r), 0, 0, 16, byte(r), 1, 63, 16)
	}
	f.Add(encodeKnobs(ex.Optim{Format: ex.FormatDelta}, opMulVec, 1, 3, true), uint8(255), int64(3), gaps)
	f.Add(encodeKnobs(ex.Optim{Format: ex.FormatDelta}, opMulMat, 4, 2, true), uint8(255), int64(3), gaps)
	f.Add(encodeKnobs(ex.Optim{Schedule: sched.Auto}, opMulVecBatch, 4, 0, true), uint8(255), int64(2), []byte{})
	e := New()
	f.Cleanup(func() { e.Close() })
	f.Fuzz(func(t *testing.T, knobs uint32, rows uint8, seed int64, extra []byte) {
		o, op, k, threads, long := decodeKnobs(knobs)
		n := 1 + int(rows)
		if long {
			n += 64
		}
		m := fuzzMatrix(n, seed, long, o.Format == ex.FormatSSS, extra)
		var p *Prepared
		if threads == 0 {
			p = e.Prepare(m, o).(*Prepared)
		} else {
			p = e.buildPrepared(m, o, min(threads+1, n), 0)
		}

		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		xs, ys := make([][]float64, k), make([][]float64, k)
		for l := range xs {
			xs[l], ys[l] = make([]float64, n), make([]float64, n)
			for j := range xs[l] {
				xs[l][j] = rng.NormFloat64()
			}
		}
		// Run twice: reused partial buffers and the chunk cursor must
		// reset between operations.
		for range 2 {
			switch op {
			case opMulVec:
				xs, ys = xs[:1], ys[:1]
				p.MulVec(xs[0], ys[0])
			case opMulVecBatch:
				p.MulVecBatch(xs, ys)
			case opMulMat:
				y := make([]float64, n*k)
				p.MulMat(matrix.PackBlock(nil, xs), y, k)
				matrix.UnpackBlock(ys, y)
			}
		}

		tol := 1e-12
		if p.Opt().EffectivePrecision() == ex.PrecF32 {
			tol = formats.F32EntryBound + 64*0x1p-52
		}
		want := make([]float64, n)
		for l := range xs {
			m.MulVec(xs[l], want)
			for i := range want {
				var scale float64
				for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
					scale += math.Abs(m.Val[j] * xs[l][m.ColInd[j]])
				}
				if math.Abs(ys[l][i]-want[i]) > tol*scale {
					t.Fatalf("%s (%s, op %d, k %d, %d threads, n %d): vector %d y[%d] = %.17g, want %.17g within %g*%g",
						p.Kernel(), o, op, k, p.Threads(), n, l, i, ys[l][i], want[i], tol, scale)
				}
			}
		}
	})
}
