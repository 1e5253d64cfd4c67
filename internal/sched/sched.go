// Package sched implements the row-partitioning and scheduling policies
// the paper's optimizer chooses among. The baseline (Section IV-A) is a
// static one-dimensional row partitioning where each partition has
// approximately equal nonzero elements; the IMB-class optimization can
// switch to the OpenMP-style "auto" schedule, which here resolves to a
// dynamic chunked schedule when row lengths are uneven and to the
// static nnz-balanced schedule otherwise.
package sched

import (
	"fmt"

	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/stats"
)

// Policy names a scheduling strategy for assigning rows to threads.
type Policy int

const (
	// StaticNNZ splits rows into contiguous blocks of approximately
	// equal nonzero count. It is the zero value on purpose: the
	// paper's baseline and optimized kernels default to it
	// (Section IV-A).
	StaticNNZ Policy = iota
	// StaticRows splits rows into equal-count contiguous blocks.
	StaticRows
	// Dynamic hands out fixed-size row chunks from a shared queue.
	Dynamic
	// Guided hands out geometrically shrinking chunks.
	Guided
	// Auto delegates the choice to the runtime (the OpenMP auto
	// schedule of Table II): it inspects row-length unevenness.
	Auto
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case StaticRows:
		return "static-rows"
	case StaticNNZ:
		return "static-nnz"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy inverts String: it resolves a serialized policy name
// (as stored in execution plans) back to the Policy value, rejecting
// anything String would not have produced.
func ParsePolicy(name string) (Policy, error) {
	for p := StaticNNZ; p <= Auto; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return StaticNNZ, fmt.Errorf("sched: unknown policy %q", name)
}

// Range is a half-open row interval [Lo, Hi) assigned to one thread or
// one chunk.
type Range struct{ Lo, Hi int }

// Rows returns the number of rows in the range.
func (r Range) Rows() int { return r.Hi - r.Lo }

// PartitionRows splits n rows into nt contiguous equal-count ranges.
// Threads beyond n receive empty ranges.
func PartitionRows(n, nt int) []Range {
	if nt < 1 {
		nt = 1
	}
	ps := make([]Range, nt)
	for t := 0; t < nt; t++ {
		ps[t] = Range{Lo: t * n / nt, Hi: (t + 1) * n / nt}
	}
	return ps
}

// PartitionPrefix splits n units into nt contiguous ranges of
// approximately equal weight, where prefix (length n+1) carries the
// cumulative weights. It is the common balancing step behind the
// nnz-balanced row partition, the simulator's base-part partition, and
// the SELL-C-σ chunk partition (whose ChunkPtr array is already such a
// prefix).
func PartitionPrefix(prefix []int64, n, nt int) []Range {
	if nt < 1 {
		nt = 1
	}
	total := prefix[n]
	ps := make([]Range, nt)
	unit := 0
	for t := 0; t < nt; t++ {
		target := total * int64(t+1) / int64(nt)
		hi := unit
		for hi < n && prefix[hi+1] <= target {
			hi++
		}
		// Always make progress when units remain and this is not a
		// deliberately empty tail partition.
		if hi == unit && unit < n && prefix[unit] < target {
			hi = unit + 1
		}
		if t == nt-1 {
			hi = n
		}
		ps[t] = Range{Lo: unit, Hi: hi}
		unit = hi
	}
	return ps
}

// PartitionNNZ splits the rows of m into nt contiguous ranges of
// approximately equal nonzero count using the row-pointer prefix sums.
func PartitionNNZ(m *matrix.CSR, nt int) []Range {
	return PartitionPrefix(m.RowPtr, m.NRows, nt)
}

// DefaultChunk returns the dynamic-schedule chunk size used when the
// caller does not specify one: enough rows that scheduling overhead is
// amortized, capped so small matrices still load-balance. nt values
// below 1 are clamped to 1, as in PartitionRows.
func DefaultChunk(n, nt int) int {
	if nt < 1 {
		nt = 1
	}
	c := n / (nt * 16)
	if c < 8 {
		c = 8
	}
	return c
}

// Chunks materializes the ordered chunk list a dynamic or guided
// schedule would serve. Dynamic uses fixed-size chunks; guided starts
// at remaining/nt and halves down to chunk. nt values below 1 are
// clamped to 1, as in PartitionRows.
func Chunks(p Policy, n, nt, chunk int) []Range {
	if nt < 1 {
		nt = 1
	}
	if chunk < 1 {
		chunk = DefaultChunk(n, nt)
	}
	var out []Range
	switch p {
	case Guided:
		row := 0
		for row < n {
			c := (n - row) / nt
			if c < chunk {
				c = chunk
			}
			hi := row + c
			if hi > n {
				hi = n
			}
			out = append(out, Range{Lo: row, Hi: hi})
			row = hi
		}
	default: // Dynamic and anything chunk-shaped.
		for row := 0; row < n; row += chunk {
			hi := row + chunk
			if hi > n {
				hi = n
			}
			out = append(out, Range{Lo: row, Hi: hi})
		}
	}
	return out
}

// Unevenness quantifies row-length imbalance as nnz_sd / nnz_avg (the
// coefficient of variation); the Auto policy and the IMB optimization
// selection both consult it.
func Unevenness(m *matrix.CSR) float64 {
	lens := m.RowLengths()
	fl := make([]float64, len(lens))
	for i, l := range lens {
		fl[i] = float64(l)
	}
	avg := stats.Mean(fl)
	if avg == 0 {
		return 0
	}
	return stats.StdDev(fl) / avg
}

// autoUnevenThreshold is the coefficient-of-variation above which Auto
// abandons static partitioning.
const autoUnevenThreshold = 2.0

// Resolve maps Auto to a concrete policy for the given matrix on nt
// threads; other policies resolve to themselves. One thread has no
// imbalance to correct, so Auto resolves to StaticNNZ there and a
// single thread never drains the dynamic chunk cursor alone.
func Resolve(p Policy, m *matrix.CSR, nt int) Policy {
	if p != Auto {
		return p
	}
	if nt > 1 && Unevenness(m) > autoUnevenThreshold {
		return Dynamic
	}
	return StaticNNZ
}

// PartitionFor returns static per-thread ranges for any policy: dynamic
// and guided schedules have no static partition, so callers that need
// one (the simulator's imbalance model handles those separately) get
// the nnz-balanced split as their equilibrium assignment.
func PartitionFor(p Policy, m *matrix.CSR, nt int) []Range {
	switch Resolve(p, m, nt) {
	case StaticRows:
		return PartitionRows(m.NRows, nt)
	default:
		return PartitionNNZ(m, nt)
	}
}

// Prepared is a frozen scheduling decision for one (policy, matrix,
// thread count) triple: the resolved policy plus every partition the
// execution engine needs at run time, materialized once so repeated
// multiplies do no planning work and no allocation.
type Prepared struct {
	// Policy is the resolved policy (never Auto).
	Policy Policy
	// Parts is the static per-thread equilibrium assignment.
	Parts []Range
	// Chunks is the ordered chunk queue for Dynamic and Guided
	// schedules; nil for static policies.
	Chunks []Range
}

// Prepare resolves the policy for m and materializes its partitions
// for nt threads.
func Prepare(p Policy, m *matrix.CSR, nt int) Prepared {
	r := Resolve(p, m, nt)
	out := Prepared{Policy: r, Parts: PartitionFor(r, m, nt)}
	if r == Dynamic || r == Guided {
		out.Chunks = Chunks(r, m.NRows, nt, 0)
	}
	return out
}

// NNZOf returns the nonzero count covered by each range.
func NNZOf(m *matrix.CSR, ps []Range) []int64 {
	out := make([]int64, len(ps))
	for i, r := range ps {
		out[i] = m.RowPtr[r.Hi] - m.RowPtr[r.Lo]
	}
	return out
}
