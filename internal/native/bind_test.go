package native

import (
	"strings"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// bindingRow is one reachable prepared binding and the introspection
// figures it must report. "%isa" in kernel stands for the dispatched
// ISA suffix ("-avx512", "-avx2", or nothing on scalar builds), and
// "%delta" for the vector delta decoder, "delta-vec8%isa" ("delta",
// the scalar MulVecRows body, on scalar builds).
type bindingRow struct {
	name    string
	in      bindingInput
	o       ex.Optim
	kernel  string
	bytes   int64
	blocked bool // has a register-blocked (multi-RHS) body: CSR float64 only
}

// bindingInput selects the fixed test matrix a binding is prepared on.
type bindingInput int

const (
	asymIn bindingInput = iota
	symIn
	// asymUnfitIn and symUnfitIn scale the values past float32's
	// range, so f32 configurations must bind their f64 kernels.
	asymUnfitIn
	symUnfitIn
)

// csrBytes is the CSR footprint of the fixed asymmetric test matrix.
const csrBytes = 47888

// bindingTable enumerates every plan binding buildPrepared can
// compile. The MemBytes figures are the converted footprints of the
// fixed test matrices; none depends on the host ISA.
func bindingTable() []bindingRow {
	const sellBytes = 72428
	f32 := ex.PrecF32
	return []bindingRow{
		{"csr", asymIn, ex.Optim{}, "csr", csrBytes, true},
		{"csr-dynamic", asymIn, ex.Optim{Schedule: sched.Dynamic}, "csr", csrBytes, true},
		{"csr-guided", asymIn, ex.Optim{Schedule: sched.Guided}, "csr", csrBytes, true},
		{"vec", asymIn, ex.Optim{Vectorize: true}, "csr-vec8%isa", csrBytes, true},
		{"vec+prefetch", asymIn, ex.Optim{Vectorize: true, Prefetch: true}, "csr-vec8%isa", csrBytes, true},
		{"prefetch", asymIn, ex.Optim{Prefetch: true}, "csr-vec8%isa", csrBytes, true},
		{"unroll", asymIn, ex.Optim{Unroll: true}, "csr-vec8%isa", csrBytes, true},
		// The host has no Split body: every Split knob set binds the
		// gather body (exec.Optim.Canonical).
		{"split", asymIn, ex.Optim{Format: ex.FormatSplit}, "csr-vec8%isa", csrBytes, true},
		{"split+vec", asymIn, ex.Optim{Format: ex.FormatSplit, Vectorize: true}, "csr-vec8%isa", csrBytes, true},
		{"split+unroll-dynamic", asymIn, ex.Optim{Format: ex.FormatSplit, Unroll: true, Schedule: sched.Dynamic}, "csr-vec8%isa", csrBytes, true},
		{"delta", asymIn, ex.Optim{Format: ex.FormatDelta}, "%delta", 39918, false},
		{"delta+vec+prefetch-guided", asymIn, ex.Optim{Format: ex.FormatDelta, Vectorize: true, Prefetch: true, Schedule: sched.Guided}, "%delta", 39918, false},
		// Every host SELL-C-σ knob set binds the C=8 chunk body
		// (exec.Optim.Canonical).
		{"sellcs", asymIn, ex.Optim{Format: ex.FormatSellCS}, "sellcs-c8%isa", sellBytes, false},
		{"sellcs-dynamic", asymIn, ex.Optim{Format: ex.FormatSellCS, Schedule: sched.Dynamic}, "sellcs-c8%isa", sellBytes, false},
		{"sellcs+vec", asymIn, ex.Optim{Format: ex.FormatSellCS, Vectorize: true}, "sellcs-c8%isa", sellBytes, false},
		{"sellcs+vec-dynamic", asymIn, ex.Optim{Format: ex.FormatSellCS, Vectorize: true, Schedule: sched.Dynamic}, "sellcs-c8%isa", sellBytes, false},
		{"sellcs+prefetch+unroll", asymIn, ex.Optim{Format: ex.FormatSellCS, Prefetch: true, Unroll: true}, "sellcs-c8%isa", sellBytes, false},
		{"sss", symIn, ex.Optim{Format: ex.FormatSSS}, "sss", 43744, false},
		{"sss+vec-dynamic", symIn, ex.Optim{Format: ex.FormatSSS, Vectorize: true, Schedule: sched.Dynamic}, "sss", 43744, false},
		{"csr-f32", asymIn, ex.Optim{Precision: f32}, "prec-csr-f32", 33528, false},
		{"csr-f32-unfit", asymUnfitIn, ex.Optim{Precision: f32}, "csr", csrBytes, true},
		{"csr+vec-f32-guided", asymIn, ex.Optim{Vectorize: true, Precision: f32, Schedule: sched.Guided}, "prec-csr-vec8-f32", 33528, false},
		{"sellcs-f32", asymIn, ex.Optim{Format: ex.FormatSellCS, Precision: f32}, "prec-sellcs-f32", 48288, false},
		{"sellcs-f32-unfit-dynamic", asymUnfitIn, ex.Optim{Format: ex.FormatSellCS, Precision: f32, Schedule: sched.Dynamic}, "sellcs-c8%isa", sellBytes, false},
		{"sss-f32", symIn, ex.Optim{Format: ex.FormatSSS, Precision: f32}, "prec-sss-f32", 31832, false},
		{"sss-f32-unfit", symUnfitIn, ex.Optim{Format: ex.FormatSSS, Precision: f32}, "sss", 43744, false},
		{"delta-f32", asymIn, ex.Optim{Format: ex.FormatDelta, Precision: f32}, "%delta", 39918, false},
	}
}

// TestBindingCharacterization pins the kernel name, the MemBytes
// footprint and the presence of a blocked body for every reachable
// binding and bound probe, so a change to how kernels are bound cannot
// silently select a different kernel or account a different footprint.
func TestBindingCharacterization(t *testing.T) {
	e := New()
	defer e.Close()
	asym := gen.FewDenseRows(600, 5, 2, 300, 51)
	sym := symMatrix(500, 53)
	inputs := map[bindingInput]*matrix.CSR{
		asymIn: asym, symIn: sym, asymUnfitIn: scaled(asym, 1e300), symUnfitIn: scaled(sym, 1e300),
	}
	isa, delta := "", "delta"
	if kernels.ISA() != "scalar" {
		isa = "-" + kernels.ISA()
		delta = "delta-vec8" + isa
	}
	check := func(row bindingRow, probe ex.Probe) {
		t.Run(row.name, func(t *testing.T) {
			p := e.buildPrepared(inputs[row.in], row.o, 3, probe)
			if probe != 0 && p.Opt() != (ex.Optim{}) {
				t.Errorf("probe compiled knobs %v", p.Opt())
			}
			if want := strings.NewReplacer("%isa", isa, "%delta", delta).Replace(row.kernel); p.Kernel() != want {
				t.Errorf("Kernel() = %q, want %q", p.Kernel(), want)
			}
			if p.MemBytes() != row.bytes {
				t.Errorf("MemBytes() = %d, want %d", p.MemBytes(), row.bytes)
			}
			if got := p.bodyBlock != nil; got != row.blocked {
				t.Errorf("blocked body = %v, want %v", got, row.blocked)
			}
		})
	}
	for _, row := range bindingTable() {
		check(row, 0)
	}
	// The bound probes Run binds, each over the baseline CSR whatever
	// knobs the configuration carries: the dynamic row's are ignored.
	for _, pr := range []struct {
		probe ex.Probe
		row   bindingRow
	}{
		{ex.ProbeML, bindingRow{"regularized", asymIn, ex.Optim{}, "regularized", csrBytes, false}},
		{ex.ProbeCMP, bindingRow{"unit-stride", asymIn, ex.Optim{}, "unit-stride", csrBytes, false}},
		{ex.ProbeCMP, bindingRow{"unit-stride-dynamic", asymIn, ex.Optim{Vectorize: true, Schedule: sched.Dynamic}, "unit-stride", csrBytes, false}},
	} {
		check(pr.row, pr.probe)
	}
}
