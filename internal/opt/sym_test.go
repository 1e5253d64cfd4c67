package opt

import (
	"testing"

	"github.com/sparsekit/spmvtuner/internal/classify"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/features"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sim"
)

func TestMembersForProposesSymmetricStorage(t *testing.T) {
	mb := classify.NewSet(classify.MB)
	fs := features.Set{Symmetric: true}
	var found bool
	for _, m := range MembersFor(mb, fs) {
		if m == SymSSS {
			found = true
		}
	}
	if !found {
		t.Fatal("MB + symmetric did not propose SymSSS")
	}
	if o := OptimFor(mb, fs); o.Format != ex.FormatSSS {
		t.Fatalf("joint optim %v does not resolve to symmetric storage", o)
	}

	// Without the symmetry flag the proposal must vanish.
	for _, m := range MembersFor(mb, features.Set{}) {
		if m == SymSSS {
			t.Fatal("SymSSS proposed for a non-symmetric matrix")
		}
	}
	// And symmetry without the MB class does not trigger it either.
	for _, m := range MembersFor(classify.NewSet(classify.ML), fs) {
		if m == SymSSS {
			t.Fatal("SymSSS proposed without the MB class")
		}
	}
}

// TestOracleSweepsSymmetricCandidates: on a bandwidth-bound symmetric
// matrix where the model prices SSS below every general-format
// configuration, the oracle must land on a Symmetric plan — proof the
// extended candidates are actually swept.
func TestOracleSweepsSymmetricCandidates(t *testing.T) {
	e := sim.New(machine.Broadwell())
	src := gen.Banded(20000, 200, 1.0, 3)
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

	plan := (&Oracle{}).Plan(e, m)
	if plan.Opt.Format != ex.FormatSSS {
		t.Fatalf("oracle plan %v did not pick symmetric storage on an MB-bound symmetric matrix", plan.Opt)
	}
	if plan.PreprocessSeconds <= 0 {
		t.Fatal("oracle preprocessing cost not accounted")
	}

	// The same matrix without the annotation must never produce a
	// symmetric plan (the sweep is gated on the kind).
	bare := m.Clone()
	bare.Sym = matrix.SymUnknown
	if p := (&Oracle{}).Plan(e, bare); p.Opt.Format == ex.FormatSSS {
		t.Fatalf("oracle proposed symmetric storage without the annotated kind: %v", p.Opt)
	}
}
