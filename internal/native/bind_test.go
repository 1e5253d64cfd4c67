package native

import (
	"strings"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// bindingRow is one reachable prepared binding and the introspection
// figures it must report. "%isa" in kernel stands for the dispatched
// ISA suffix ("-avx512", "-avx2", or nothing on scalar builds).
type bindingRow struct {
	name    string
	sym     bool // prepared on the symmetric matrix
	o       ex.Optim
	kernel  string
	bytes   int64
	blocked bool // has a blocked (multi-RHS) body
}

// bindingTable enumerates every binding buildPrepared can compile,
// including the bound probes the public Prepare rejects. The MemBytes
// figures are the converted footprints of the two fixed test matrices;
// none depends on the host ISA.
func bindingTable() []bindingRow {
	const csrBytes, sellBytes = 47888, 72428
	f32, s64 := ex.PrecF32, ex.PrecSplit
	return []bindingRow{
		{"csr", false, ex.Optim{}, "csr", csrBytes, true},
		{"csr-dynamic", false, ex.Optim{Schedule: sched.Dynamic}, "csr", csrBytes, true},
		{"csr-guided", false, ex.Optim{Schedule: sched.Guided}, "csr", csrBytes, true},
		{"vec", false, ex.Optim{Vectorize: true}, "csr-vec8%isa", csrBytes, true},
		{"vec+prefetch", false, ex.Optim{Vectorize: true, Prefetch: true}, "csr-vec8%isa", csrBytes, true},
		{"prefetch", false, ex.Optim{Prefetch: true}, "csr-prefetch", csrBytes, true},
		{"unroll", false, ex.Optim{Unroll: true}, "csr-unrolled4", csrBytes, true},
		{"regularized", false, ex.Optim{RegularizeX: true}, "regularized", csrBytes, false},
		{"unit-stride", false, ex.Optim{UnitStride: true}, "unit-stride", csrBytes, false},
		{"unit-stride-dynamic", false, ex.Optim{UnitStride: true, Schedule: sched.Dynamic}, "unit-stride", csrBytes, false},
		{"split", false, ex.Optim{Split: true}, "split+csr", csrBytes, true},
		{"split+vec", false, ex.Optim{Split: true, Vectorize: true}, "split+csr-vec8%isa", csrBytes, true},
		{"delta", false, ex.Optim{Compress: true}, "delta", 39918, true},
		{"sellcs", false, ex.Optim{SellCS: true}, "sellcs", sellBytes, true},
		{"sellcs-dynamic", false, ex.Optim{SellCS: true, Schedule: sched.Dynamic}, "sellcs", sellBytes, true},
		{"sellcs+vec", false, ex.Optim{SellCS: true, Vectorize: true}, "sellcs-c8%isa", sellBytes, true},
		{"sellcs+vec-dynamic", false, ex.Optim{SellCS: true, Vectorize: true, Schedule: sched.Dynamic}, "sellcs-c8%isa", sellBytes, true},
		{"sss", true, ex.Optim{Symmetric: true}, "sss", 43744, true},
		{"csr-f32", false, ex.Optim{Precision: f32}, "prec-csr-f32", 33528, true},
		{"csr-split64", false, ex.Optim{Precision: s64}, "prec-csr-split64", 81416, true},
		{"csr+vec-f32-guided", false, ex.Optim{Vectorize: true, Precision: f32, Schedule: sched.Guided}, "prec-csr-vec8-f32", 33528, true},
		{"sellcs-f32", false, ex.Optim{SellCS: true, Precision: f32}, "prec-sellcs-f32", 48288, true},
		{"sellcs-split64-dynamic", false, ex.Optim{SellCS: true, Precision: s64, Schedule: sched.Dynamic}, "prec-sellcs-split64", 96176, true},
		{"sss-f32", true, ex.Optim{Symmetric: true, Precision: f32}, "prec-sss-f32", 31832, true},
		{"sss-split64", true, ex.Optim{Symmetric: true, Precision: s64}, "prec-sss-split64", 71576, true},
		{"delta-f32", false, ex.Optim{Compress: true, Precision: f32}, "delta", 39918, true},
	}
}

// TestBindingCharacterization pins the kernel name, the MemBytes
// footprint and the presence of a blocked body for every reachable
// binding, so a change to how kernels are bound cannot silently select
// a different kernel or account a different footprint.
func TestBindingCharacterization(t *testing.T) {
	e := New()
	defer e.Close()
	asym := gen.FewDenseRows(600, 5, 2, 300, 51)
	sym := symMatrix(500, 53)
	isa := ""
	if kernels.ISA() != "scalar" {
		isa = "-" + kernels.ISA()
	}
	for _, row := range bindingTable() {
		t.Run(row.name, func(t *testing.T) {
			m := asym
			if row.sym {
				m = sym
			}
			p := e.buildPrepared(m, row.o, 3)
			if want := strings.ReplaceAll(row.kernel, "%isa", isa); p.Kernel() != want {
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
}
