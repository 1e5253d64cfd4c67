package sim

import (
	"math"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// symmetrizeT returns A + Aᵀ with the kind annotated.
func symmetrizeT(src *matrix.CSR) *matrix.CSR {
	coo := matrix.NewCOO(src.NRows, src.NRows)
	for i := 0; i < src.NRows; i++ {
		for j := src.RowPtr[i]; j < src.RowPtr[i+1]; j++ {
			c := int(src.ColInd[j])
			coo.Add(i, c, src.Val[j])
			if c != i {
				coo.Add(c, i, src.Val[j])
			}
		}
	}
	m := coo.ToCSR()
	m.Sym = matrix.SymSymmetric
	return m
}

// TestSymModelHalvesMatrixTraffic: on a wide-band bandwidth-saturated
// symmetric matrix (many nonzeros per row, so the halved element
// stream dwarfs the conflict-window reduction), the modeled SSS run
// must move clearly fewer bytes than CSR and the modeled time must
// improve.
func TestSymModelHalvesMatrixTraffic(t *testing.T) {
	e := New(machine.Broadwell())
	m := symmetrizeT(gen.Banded(30000, 100, 1.0, 7))
	base := e.Run(ex.Config{Matrix: m})
	sss := e.Run(ex.Config{Matrix: m, Opt: ex.Optim{Format: ex.FormatSSS}})
	if sss.MemBytes >= 0.8*base.MemBytes {
		t.Fatalf("SSS modeled bytes %.3g not clearly below CSR %.3g", sss.MemBytes, base.MemBytes)
	}
	if sss.Seconds >= base.Seconds {
		t.Fatalf("SSS modeled time %.3g not below CSR %.3g on an MB matrix", sss.Seconds, base.Seconds)
	}
}

// TestSymModelReductionEatsWinWhenSparse: the point of modeling the
// reduction is predicting when NOT to use symmetric storage. A
// wide-profile sparse matrix (a symmetrized random pattern) sends
// every thread's mirror scatters back toward row 0, so its conflict
// windows approach n cells and the serial fold nt·n/2; at full
// Broadwell thread count that costs more than the halved stream saves,
// so the model must price SSS above CSR there.
func TestSymModelReductionEatsWinWhenSparse(t *testing.T) {
	e := New(machine.Broadwell())
	m := symmetrizeT(gen.UniformRandom(250000, 3, 5)) // ~5 nnz/row, random columns
	base := e.Run(ex.Config{Matrix: m})
	sss := e.Run(ex.Config{Matrix: m, Opt: ex.Optim{Format: ex.FormatSSS}})
	if sss.Seconds <= base.Seconds {
		t.Fatalf("model missed the reduction cost: SSS %.3g <= CSR %.3g on a wide-profile matrix at %d threads",
			sss.Seconds, base.Seconds, machine.Broadwell().Threads())
	}
}

// TestSymModelReductionCostGrowsWithThreads: every slot past the first
// adds a conflict window, so total modeled traffic must increase with
// thread count — the mechanism behind the prediction above.
func TestSymModelReductionCostGrowsWithThreads(t *testing.T) {
	e := New(machine.Broadwell())
	side := 320
	m := gen.Poisson2D(side, side)
	m.Sym = matrix.SymSymmetric
	few := e.Run(ex.Config{Matrix: m, Threads: 2, Opt: ex.Optim{Format: ex.FormatSSS}})
	many := e.Run(ex.Config{Matrix: m, Threads: 16, Opt: ex.Optim{Format: ex.FormatSSS}})
	if many.MemBytes <= few.MemBytes {
		t.Fatalf("reduction traffic did not grow with threads: nt=16 %.3g <= nt=2 %.3g",
			many.MemBytes, few.MemBytes)
	}
}

// TestSymModelReductionScalesWithBandwidth: a banded Laplacian's
// mirror scatters reach one bandwidth below each slot's first row, so
// its reduction bytes — the modeled traffic at nt threads minus the
// single-thread run, which has no window — follow the bandwidth and
// not n: quadrupling n at a fixed bandwidth leaves them unchanged, and
// doubling the bandwidth doubles them.
func TestSymModelReductionScalesWithBandwidth(t *testing.T) {
	e := New(machine.Broadwell())
	const nt = 16
	reduction := func(nx, ny int) (bytes float64, n int) {
		m := gen.Poisson2D(nx, ny) // bandwidth ny
		m.Sym = matrix.SymSymmetric
		o := ex.Optim{Format: ex.FormatSSS}
		one := e.Run(ex.Config{Matrix: m, Threads: 1, Opt: o})
		many := e.Run(ex.Config{Matrix: m, Threads: nt, Opt: o})
		return many.MemBytes - one.MemBytes, m.NRows
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Abs(b) }
	small, n := reduction(200, 100)
	large, _ := reduction(800, 100)
	wide, _ := reduction(200, 200)
	if small <= 0 {
		t.Fatalf("no reduction bytes at nt=%d: %.3g", nt, small)
	}
	if !near(large, small) {
		t.Fatalf("reduction bytes grew with n at fixed bandwidth: %.6g at 4n vs %.6g", large, small)
	}
	if !near(wide, 2*small) {
		t.Fatalf("reduction bytes %.6g at twice the bandwidth, want 2 x %.6g", wide, small)
	}
	if small >= 16*float64(n) {
		t.Fatalf("reduction bytes %.3g not below one n-cell buffer pass (%d rows)", small, n)
	}
}

// TestSymWindowsMatchNativeBinding: the model prices the windows of
// the partition the native binding runs — the static partition of the
// SSS lower triangle under every schedule — so its window lengths must
// equal formats.SymWindows over that partition.
func TestSymWindowsMatchNativeBinding(t *testing.T) {
	e := New(machine.Broadwell())
	lap := gen.Poisson2D(40, 60)
	lap.Sym = matrix.SymSymmetric
	for name, m := range map[string]*matrix.CSR{"lap2d": lap, "random": symmetrizeT(gen.UniformRandom(3000, 4, 9))} {
		lower := formats.ConvertSSS(m).Lower
		p := e.profileOf(m)
		for _, policy := range []sched.Policy{sched.StaticNNZ, sched.StaticRows, sched.Dynamic, sched.Guided, sched.Auto} {
			for _, nt := range []int{1, 2, 5, 16} {
				want := formats.SymWindows(lower, sched.Prepare(policy, lower, nt).Parts)
				got := p.symWindows(m, policy, nt)
				for tid, w := range want {
					if got[tid] != int64(w.Rows()) {
						t.Fatalf("%s %v nt=%d: slot %d window %d cells, native binds %d",
							name, policy, nt, tid, got[tid], w.Rows())
					}
				}
			}
		}
	}
}

// TestSymModelInertOnGeneralMatrix: the Symmetric knob must model as
// plain CSR when the matrix does not carry the symmetric kind.
func TestSymModelInertOnGeneralMatrix(t *testing.T) {
	e := New(machine.Broadwell())
	m := gen.UniformRandom(5000, 6, 3) // Sym unknown
	base := e.Run(ex.Config{Matrix: m})
	sss := e.Run(ex.Config{Matrix: m, Opt: ex.Optim{Format: ex.FormatSSS}})
	if sss.Seconds != base.Seconds || sss.MemBytes != base.MemBytes {
		t.Fatalf("Symmetric knob not inert on a general matrix: %v vs %v", sss, base)
	}
}
