package exec

import (
	"strings"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

func TestOptimString(t *testing.T) {
	cases := []struct {
		o    Optim
		want string
	}{
		{Optim{}, "none@static-nnz"},
		{Optim{Vectorize: true, Compress: true}, "compress+vec@static-nnz"},
		{Optim{Prefetch: true, Schedule: sched.Auto}, "prefetch@auto"},
		{Optim{Split: true, Unroll: true}, "unroll+split@static-nnz"},
	}
	for _, c := range cases {
		if got := c.o.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.o, got, c.want)
		}
	}
}

func TestBreakdownBinding(t *testing.T) {
	cases := []struct {
		b    Breakdown
		want string
	}{
		{Breakdown{ComputeSeconds: 3, BandwidthSeconds: 1, LatencySeconds: 1}, "compute"},
		{Breakdown{ComputeSeconds: 1, BandwidthSeconds: 3, LatencySeconds: 1}, "bandwidth"},
		{Breakdown{ComputeSeconds: 1, BandwidthSeconds: 1, LatencySeconds: 3}, "latency"},
		{Breakdown{ComputeSeconds: 2, GlobalBWSeconds: 5}, "bandwidth"},
	}
	for _, c := range cases {
		if got := c.b.Binding(); got != c.want {
			t.Errorf("Binding(%+v) = %q, want %q", c.b, got, c.want)
		}
	}
}

func TestGflopsOf(t *testing.T) {
	coo := matrix.NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	m := coo.ToCSR() // 2 nnz -> 4 flops
	if got := GflopsOf(m, 1e-9); got < 4-1e-9 || got > 4+1e-9 {
		t.Fatalf("GflopsOf = %g, want 4", got)
	}
	if GflopsOf(m, 0) != 0 {
		t.Fatal("zero seconds must yield zero rate")
	}
}

func TestOptimStringMentionsSchedule(t *testing.T) {
	for _, p := range []sched.Policy{sched.StaticNNZ, sched.Dynamic, sched.Guided} {
		s := Optim{Schedule: p}.String()
		if !strings.HasSuffix(s, p.String()) {
			t.Errorf("%q does not end with schedule %q", s, p)
		}
	}
}

// TestOptimCanonical pins the host resolver per effective format,
// kernel knobs and schedule, then checks its invariants over every knob
// combination: the identity off the host, idempotent, and blind to the effective precision and to every
// effective format but Split, which runs as CSR.
func TestOptimCanonical(t *testing.T) {
	host, knc := machine.Host(), machine.KNC()
	f32 := PrecF32
	rows := []struct {
		name   string
		in     Optim
		onHost Optim
	}{
		{"csr", Optim{}, Optim{}},
		{"csr/prefetch", Optim{Prefetch: true}, Optim{Vectorize: true}},
		{"csr/unroll-static-rows", Optim{Unroll: true, Schedule: sched.StaticRows}, Optim{Vectorize: true, Schedule: sched.StaticRows}},
		{"csr/vec+prefetch+unroll-dynamic", Optim{Vectorize: true, Prefetch: true, Unroll: true, Schedule: sched.Dynamic}, Optim{Vectorize: true, Schedule: sched.Dynamic}},
		{"csr/prefetch-f32-guided", Optim{Prefetch: true, Precision: f32, Schedule: sched.Guided}, Optim{Vectorize: true, Precision: f32, Schedule: sched.Guided}},
		{"split", Optim{Split: true}, Optim{Vectorize: true, Schedule: sched.Auto}},
		{"split/unroll-dynamic", Optim{Split: true, Unroll: true, Compress: true, SellCS: true, Schedule: sched.Dynamic}, Optim{Vectorize: true, Schedule: sched.Dynamic}},
		{"split/static-rows", Optim{Split: true, Schedule: sched.StaticRows}, Optim{Vectorize: true, Schedule: sched.Auto}},
		{"split/f32-auto", Optim{Split: true, Precision: f32, Schedule: sched.Auto}, Optim{Vectorize: true, Schedule: sched.Auto}},
		{"split/prefetch-guided", Optim{Split: true, Prefetch: true, Schedule: sched.Guided}, Optim{Vectorize: true, Schedule: sched.Guided}},
		{"sellcs/vec+prefetch+unroll-dynamic", Optim{SellCS: true, Vectorize: true, Prefetch: true, Unroll: true, Compress: true, Precision: f32, Schedule: sched.Dynamic}, Optim{SellCS: true, Vectorize: true, Precision: f32, Schedule: sched.Dynamic}},
		{"sellcs/prefetch-static-rows", Optim{SellCS: true, Prefetch: true, Schedule: sched.StaticRows}, Optim{SellCS: true, Vectorize: true}},
		{"sellcs/auto", Optim{SellCS: true, Schedule: sched.Auto}, Optim{SellCS: true, Vectorize: true, Schedule: sched.Auto}},
		{"delta/vec+prefetch+unroll-guided", Optim{Compress: true, Vectorize: true, Prefetch: true, Unroll: true, Precision: f32, Schedule: sched.Guided}, Optim{Compress: true, Vectorize: true}},
		{"delta/static-rows", Optim{Compress: true, Schedule: sched.StaticRows}, Optim{Compress: true, Vectorize: true, Schedule: sched.StaticRows}},
		{"sss/vec-auto", Optim{Symmetric: true, Vectorize: true, Compress: true, Split: true, Precision: f32, Schedule: sched.Auto}, Optim{Symmetric: true, Precision: f32}},
	}
	for _, r := range rows {
		if got := r.in.Canonical(host); got != r.onHost {
			t.Errorf("%s: host Canonical(%v) = %v, want %v", r.name, r.in, got, r.onHost)
		}
		if got := r.in.Canonical(knc); got != r.in {
			t.Errorf("%s: knc Canonical(%v) = %v, want the identity", r.name, r.in, got)
		}
	}

	policies := []sched.Policy{sched.StaticNNZ, sched.StaticRows, sched.Dynamic, sched.Guided, sched.Auto}
	for bits := 0; bits < 1<<7; bits++ {
		for _, p := range policies {
			for _, prec := range []Precision{PrecF64, PrecF32} {
				bit := func(i int) bool { return bits>>i&1 == 1 }
				o := Optim{
					Vectorize: bit(0), Prefetch: bit(1), Unroll: bit(2), Compress: bit(3), Split: bit(4),
					SellCS: bit(5), Symmetric: bit(6), Schedule: p, Precision: prec,
				}
				if got := o.Canonical(knc); got != o {
					t.Fatalf("knc Canonical(%v) = %v, want the identity", o, got)
				}
				c := o.Canonical(host)
				if again := c.Canonical(host); again != c {
					t.Fatalf("Canonical not idempotent: %v -> %v -> %v", o, c, again)
				}
				// Split is the one format the host resolves to another:
				// the CSR gather body.
				want := o.EffectiveFormat()
				if want == FormatSplit {
					want = FormatCSR
				}
				if c.EffectiveFormat() != want || c.EffectivePrecision() != o.EffectivePrecision() {
					t.Fatalf("Canonical(%v) = %v moved the effective format or precision", o, c)
				}
			}
		}
	}
}
