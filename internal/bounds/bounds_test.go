package bounds

import (
	"testing"

	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sim"
)

func TestBoundsBracketBaseline(t *testing.T) {
	e := sim.New(machine.KNC())

	// Representative structural regimes.
	irr := gen.UniformRandom(400000, 9, 1)
	reg := gen.Banded(400000, 8, 1.0, 1)
	skew := gen.FewDenseRows(100000, 5, 3, 60000, 1)

	bIrr := Measure(e, irr)
	bReg := Measure(e, reg)
	bSkew := Measure(e, skew)

	for name, b := range map[string]Bounds{"irregular": bIrr, "regular": bReg, "skewed": bSkew} {
		if b.PCSR <= 0 {
			t.Fatalf("%s: PCSR = %g", name, b.PCSR)
		}
		// Each bound must lie above (or at) the baseline: they are
		// upper bounds for their bottleneck.
		for bn, v := range map[string]float64{"PML": b.PML, "PIMB": b.PIMB, "PMB": b.PMB, "Ppeak": b.Ppeak} {
			if v < b.PCSR*0.95 {
				t.Errorf("%s: %s = %.2f below baseline %.2f", name, bn, v, b.PCSR)
			}
		}
		// P_peak dominates P_MB: it assumes even less traffic.
		if b.Ppeak < b.PMB {
			t.Errorf("%s: Ppeak %.2f < PMB %.2f", name, b.Ppeak, b.PMB)
		}
	}
}

func TestIrregularMatrixHasMLHeadroom(t *testing.T) {
	e := sim.New(machine.KNC())
	irr := gen.UniformRandom(400000, 9, 2)
	reg := gen.Banded(400000, 8, 1.0, 2)
	bi, br := Measure(e, irr), Measure(e, reg)
	mlIrr, _ := bi.Ratios()
	mlReg, _ := br.Ratios()
	if mlIrr < 1.25 {
		t.Errorf("irregular P_ML/P_CSR = %.2f, want > 1.25 (ML class)", mlIrr)
	}
	if mlReg > 1.25 {
		t.Errorf("regular P_ML/P_CSR = %.2f, want <= 1.25", mlReg)
	}
}

func TestSkewedMatrixHasIMBHeadroom(t *testing.T) {
	e := sim.New(machine.KNC())
	skew := gen.FewDenseRows(100000, 5, 3, 60000, 3)
	bal := gen.UniformRandom(100000, 8, 3)
	_, imbSkew := Measure(e, skew).Ratios()
	_, imbBal := Measure(e, bal).Ratios()
	if imbSkew < 1.24 {
		t.Errorf("skewed P_IMB/P_CSR = %.2f, want > 1.24 (IMB class)", imbSkew)
	}
	if imbBal > 1.24 {
		t.Errorf("balanced P_IMB/P_CSR = %.2f, want <= 1.24", imbBal)
	}
}

func TestPIMBUsesMedianNotMax(t *testing.T) {
	e := sim.New(machine.KNC())
	skew := gen.FewDenseRows(100000, 5, 3, 60000, 4)
	b := Measure(e, skew)
	// With a handful of overloaded threads, the median thread is fast,
	// so P_IMB must sit well above P_CSR (whose time is the max).
	if b.PIMB <= b.PCSR {
		t.Fatalf("PIMB %.2f should exceed PCSR %.2f on an imbalanced matrix", b.PIMB, b.PCSR)
	}
}

func TestRatiosZeroOnEmptyBounds(t *testing.T) {
	var b Bounds
	ml, imb := b.Ratios()
	if ml != 0 || imb != 0 {
		t.Fatal("zero bounds should give zero ratios")
	}
}

func TestCacheResidentBoundsUseLLCBandwidth(t *testing.T) {
	mdl := machine.Broadwell()
	e := sim.New(mdl)
	// The cost model's working set: the matrix plus x and y. A banded
	// half-width-4 matrix takes 132n-232 bytes of it, so 655,362 rows
	// is the smallest matrix that overflows the 55 MiB L3 by 1.5x.
	workingSet := func(m *matrix.CSR) int64 { return m.Bytes() + int64(m.NRows+m.NCols)*8 }
	small := gen.Banded(20000, 4, 1.0, 5)
	big := gen.Banded(655362, 4, 1.0, 5)
	if ws, llc := workingSet(small), mdl.LLCBytes(); ws > llc {
		t.Fatalf("small working set %d B does not fit the %d B LLC", ws, llc)
	}
	if ws, llc := workingSet(big), mdl.LLCBytes(); 2*ws < 3*llc {
		t.Fatalf("big working set %d B is under 1.5x the %d B LLC", ws, llc)
	}
	bs, bb := Measure(e, small), Measure(e, big)
	// Per-nnz the cache-resident P_MB must be much higher (200 vs 60
	// GB/s in Table III).
	ratio := (bs.PMB / float64(small.NNZ())) / (bb.PMB / float64(big.NNZ()))
	if ratio < 2 {
		t.Fatalf("LLC-resident PMB should be ~3.3x higher per nnz, got %.2fx", ratio)
	}
}
