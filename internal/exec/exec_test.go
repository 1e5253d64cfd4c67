package exec

import (
	"strings"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// TestOptimString pins the string of every format under each kernel
// knob: the Delta tag leads the kernel knobs, every other format's tag
// follows them.
func TestOptimString(t *testing.T) {
	all := Optim{Vectorize: true, Prefetch: true, Unroll: true}
	with := func(o Optim, f Format) Optim { o.Format = f; return o }
	cases := []struct {
		o    Optim
		want string
	}{
		{Optim{}, "none@static-nnz"},
		{Optim{Prefetch: true, Schedule: sched.Auto}, "prefetch@auto"},
		{all, "vec+prefetch+unroll@static-nnz"},
		{Optim{Precision: PrecF32}, "f32@static-nnz"},
		{Optim{Format: FormatDelta}, "compress@static-nnz"},
		{Optim{Vectorize: true, Format: FormatDelta}, "compress+vec@static-nnz"},
		{with(all, FormatDelta), "compress+vec+prefetch+unroll@static-nnz"},
		{Optim{Format: FormatSellCS}, "sellcs@static-nnz"},
		{Optim{Vectorize: true, Format: FormatSellCS, Precision: PrecF32}, "vec+sellcs+f32@static-nnz"},
		{with(all, FormatSellCS), "vec+prefetch+unroll+sellcs@static-nnz"},
		{Optim{Format: FormatSplit, Unroll: true}, "unroll+split@static-nnz"},
		{with(all, FormatSplit), "vec+prefetch+unroll+split@static-nnz"},
		{Optim{Format: FormatSSS, Schedule: sched.StaticRows}, "sym@static-rows"},
		{Optim{Format: FormatSSS, Precision: PrecF32}, "sym+f32@static-nnz"},
		{with(all, FormatSSS), "vec+prefetch+unroll+sym@static-nnz"},
		// The composed SymSSS+CompressVec plan the modeled classifiers
		// pick for a bandwidth-bound symmetric matrix runs SSS alone.
		{Optim{Vectorize: true, Format: FormatSSS}, "vec+sym@static-nnz"},
	}
	for _, c := range cases {
		if got := c.o.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.o, got, c.want)
		}
	}
}

// TestFormatOrderIsPrecedence pins the constant order, which is what
// composing two format choices (max) resolves by: CSR < Delta <
// SELL-C-σ < Split < SSS, and nothing past SSS.
func TestFormatOrderIsPrecedence(t *testing.T) {
	order := []string{"csr", "delta-csr", "sell-c-sigma", "split-csr", "sss"}
	for i, want := range order {
		if f := Format(i); !f.Valid() || f.String() != want {
			t.Errorf("Format(%d) = %q (valid %v), want %q", i, f, f.Valid(), want)
		}
	}
	if f := Format(len(order)); f.Valid() {
		t.Errorf("Format(%d) = %q is valid past SSS", int(f), f)
	}
	if f := Format(-1); f.Valid() {
		t.Errorf("Format(-1) is valid")
	}
	if max(FormatDelta, FormatSellCS, FormatSplit) != FormatSplit || max(FormatSplit, FormatSSS) != FormatSSS {
		t.Error("max does not compose formats by precedence")
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

// TestOptimCanonical pins the host resolver per format, kernel knobs
// and schedule, then checks its invariants over every knob combination:
// the identity off the host, idempotent, and blind to the effective
// precision and to every format but Split, which runs as CSR.
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
		{"split", Optim{Format: FormatSplit}, Optim{Vectorize: true, Schedule: sched.Auto}},
		{"split/unroll-dynamic", Optim{Format: FormatSplit, Unroll: true, Schedule: sched.Dynamic}, Optim{Vectorize: true, Schedule: sched.Dynamic}},
		{"split/static-rows", Optim{Format: FormatSplit, Schedule: sched.StaticRows}, Optim{Vectorize: true, Schedule: sched.Auto}},
		{"split/f32-auto", Optim{Format: FormatSplit, Precision: f32, Schedule: sched.Auto}, Optim{Vectorize: true, Schedule: sched.Auto}},
		{"split/prefetch-guided", Optim{Format: FormatSplit, Prefetch: true, Schedule: sched.Guided}, Optim{Vectorize: true, Schedule: sched.Guided}},
		{"sellcs/vec+prefetch+unroll-dynamic", Optim{Format: FormatSellCS, Vectorize: true, Prefetch: true, Unroll: true, Precision: f32, Schedule: sched.Dynamic}, Optim{Format: FormatSellCS, Vectorize: true, Precision: f32, Schedule: sched.Dynamic}},
		{"sellcs/prefetch-static-rows", Optim{Format: FormatSellCS, Prefetch: true, Schedule: sched.StaticRows}, Optim{Format: FormatSellCS, Vectorize: true}},
		{"sellcs/auto", Optim{Format: FormatSellCS, Schedule: sched.Auto}, Optim{Format: FormatSellCS, Vectorize: true, Schedule: sched.Auto}},
		{"delta/vec+prefetch+unroll-guided", Optim{Format: FormatDelta, Vectorize: true, Prefetch: true, Unroll: true, Precision: f32, Schedule: sched.Guided}, Optim{Format: FormatDelta, Vectorize: true}},
		{"delta/static-rows", Optim{Format: FormatDelta, Schedule: sched.StaticRows}, Optim{Format: FormatDelta, Vectorize: true, Schedule: sched.StaticRows}},
		{"sss/vec-auto", Optim{Format: FormatSSS, Vectorize: true, Precision: f32, Schedule: sched.Auto}, Optim{Format: FormatSSS, Precision: f32}},
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
	for bits := 0; bits < 1<<3; bits++ {
		for f := FormatCSR; f.Valid(); f++ {
			for _, p := range policies {
				for _, prec := range []Precision{PrecF64, PrecF32} {
					bit := func(i int) bool { return bits>>i&1 == 1 }
					o := Optim{
						Vectorize: bit(0), Prefetch: bit(1), Unroll: bit(2),
						Format: f, Schedule: p, Precision: prec,
					}
					if got := o.Canonical(knc); got != o {
						t.Fatalf("knc Canonical(%v) = %v, want the identity", o, got)
					}
					c := o.Canonical(host)
					if again := c.Canonical(host); again != c {
						t.Fatalf("Canonical not idempotent: %v -> %v -> %v", o, c, again)
					}
					// Split is the one format the host resolves to
					// another: the CSR gather body.
					want := f
					if want == FormatSplit {
						want = FormatCSR
					}
					if c.Format != want || c.EffectivePrecision() != o.EffectivePrecision() {
						t.Fatalf("Canonical(%v) = %v moved the format or the effective precision", o, c)
					}
				}
			}
		}
	}
}
