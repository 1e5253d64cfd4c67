package sim

// Cost-model tests for reduced-precision value storage: the model must
// price the halved value stream so that f32 helps exactly where the
// engine's reduced kernels do — bandwidth-bound configurations — and
// remain strictly inert where the paper's analysis says they cannot
// pay (compute- and latency-bound matrices, whose roofline term does
// not contain matrix bytes).

import (
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
)

func TestPrecReducesTrafficAndHelpsMB(t *testing.T) {
	e := New(machine.KNC())
	// Vectorized large banded: the bandwidth-bound regime of
	// TestBreakdownBindingNames.
	m := gen.Banded(400000, 16, 1.0, 2)
	base := run(e, m, ex.Optim{Vectorize: true})
	if base.Breakdown.Binding() != "bandwidth" {
		t.Fatalf("setup: expected bandwidth binding, got %s", base.Breakdown.Binding())
	}
	f32 := run(e, m, ex.Optim{Vectorize: true, Precision: ex.PrecF32})
	if f32.MemBytes >= base.MemBytes {
		t.Fatalf("f32 did not reduce traffic: %.3g -> %.3g", base.MemBytes, f32.MemBytes)
	}
	if f32.Seconds >= base.Seconds {
		t.Fatalf("f32 did not help bandwidth-bound matrix: %.3g -> %.3g", base.Seconds, f32.Seconds)
	}
}

// TestPrecPricedAsF64WhenUnfit: a matrix holding values float32 cannot
// keep within the bound (beyond its range, or f64 subnormals) runs its
// f64 binding on the engine, so the model prices every f32
// configuration of it exactly as f64.
func TestPrecPricedAsF64WhenUnfit(t *testing.T) {
	e := New(machine.KNL())
	banded := gen.Banded(40000, 16, 1.0, 2)
	sym := symmetrizeT(gen.Banded(20000, 40, 1.0, 8))
	for _, c := range []struct {
		name string
		src  *matrix.CSR
		o    ex.Optim
	}{
		{"csr+vec", banded, ex.Optim{Vectorize: true}},
		{"sellcs", banded, ex.Optim{Format: ex.FormatSellCS, Vectorize: true}},
		{"sss", sym, ex.Optim{Format: ex.FormatSSS}},
	} {
		f32 := c.o
		f32.Precision = ex.PrecF32
		if run(e, c.src, f32).MemBytes >= run(e, c.src, c.o).MemBytes {
			t.Fatalf("%s: setup: f32 must shrink the priced traffic of values that fit", c.name)
		}
		for _, s := range []float64{1e300, 1e-310} {
			m := c.src.Clone()
			for j := range m.Val {
				m.Val[j] *= s
			}
			base, got := run(e, m, c.o), run(e, m, f32)
			if got.Seconds != base.Seconds || got.MemBytes != base.MemBytes || got.Breakdown != base.Breakdown {
				t.Fatalf("%s x%g: f32 priced %.6g s/%.3g B, want the f64 price %.6g s/%.3g B",
					c.name, s, got.Seconds, got.MemBytes, base.Seconds, base.MemBytes)
			}
		}
	}
}

// TestPrecInertWhenComputeBound pins the negative direction: when the
// roofline's compute term dominates, halving matrix bytes must not
// change the modeled time at all — this is what lets the oracle reject
// reduced precision on compute-bound matrices by simple comparison.
func TestPrecInertWhenComputeBound(t *testing.T) {
	e := New(machine.KNC())
	// Scalar large banded on KNC is stall-dominated (compute binding,
	// per TestBreakdownBindingNames).
	m := gen.Banded(400000, 16, 1.0, 2)
	base := run(e, m, ex.Optim{})
	if base.Breakdown.Binding() != "compute" {
		t.Fatalf("setup: expected compute binding, got %s", base.Breakdown.Binding())
	}
	f32 := run(e, m, ex.Optim{Precision: ex.PrecF32})
	if f32.Seconds != base.Seconds {
		t.Fatalf("f32 changed a compute-bound run: %.6g vs %.6g", f32.Seconds, base.Seconds)
	}
}

// TestPrecInertOnUnsupportedFormats: Delta and Split have no reduced
// value stream; the model must treat the knob as inert there, exactly
// like the engine does, or the oracle would rank identical runtime
// configurations differently.
func TestPrecInertOnUnsupportedFormats(t *testing.T) {
	e := New(machine.KNC())
	m := gen.Banded(200000, 12, 1.0, 3)
	for name, o := range map[string]ex.Optim{
		"delta": {Format: ex.FormatDelta, Vectorize: true},
		"split": {Format: ex.FormatSplit},
	} {
		base := run(e, m, o)
		po := o
		po.Precision = ex.PrecF32
		got := run(e, m, po)
		if got.Seconds != base.Seconds || got.MemBytes != base.MemBytes {
			t.Fatalf("%s: precision knob must be inert: %.6g/%.3g vs %.6g/%.3g",
				name, got.Seconds, got.MemBytes, base.Seconds, base.MemBytes)
		}
	}
}

// TestPrecHelpsSymmetricStream: the reduced lower-triangle stream must
// compose with SSS on a bandwidth-bound symmetric matrix.
func TestPrecHelpsSymmetricStream(t *testing.T) {
	e := New(machine.KNL())
	m := symmetrizeT(gen.Banded(100000, 40, 1.0, 8))
	base := run(e, m, ex.Optim{Format: ex.FormatSSS})
	red := run(e, m, ex.Optim{Format: ex.FormatSSS, Precision: ex.PrecF32})
	if red.MemBytes >= base.MemBytes {
		t.Fatalf("reduced SSS traffic %.3g not below f64 SSS %.3g", red.MemBytes, base.MemBytes)
	}
}
