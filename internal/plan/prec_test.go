package plan

import (
	"encoding/json"
	"strings"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
)

// precPlan returns a minimal valid plan carrying the given precision.
func precPlan(p ex.Precision) Plan {
	return Plan{
		Version:     CurrentVersion,
		Fingerprint: "v1-100x100-500-gen-0123456789abcdef",
		Machine:     "knl",
		Optimizer:   "oracle",
		Opt:         ex.Optim{Vectorize: true, Precision: p},
		Library:     Library,
	}
}

// TestWirePrecisionField: reduced precisions travel as their canonical
// names; exact f64 is the default and stays off the wire entirely, so
// every pre-precision plan artifact decodes unchanged.
func TestWirePrecisionField(t *testing.T) {
	b, err := json.Marshal(precPlan(ex.PrecF64))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "precision") {
		t.Fatalf("f64 plan must omit the precision field: %s", b)
	}
	for p, name := range map[ex.Precision]string{
		ex.PrecF32: "f32",
	} {
		b, err := json.Marshal(precPlan(p))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), `"precision":"`+name+`"`) {
			t.Fatalf("wire form missing %q: %s", name, b)
		}
		var got Plan
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("round trip %s: %v", name, err)
		}
		if got.Opt.Precision != p {
			t.Fatalf("round trip %s: precision %v", name, got.Opt.Precision)
		}
	}
}

// TestDecodeRejectsUnknownPrecision: strict decoding refuses precision
// names this version does not implement — a forward-version artifact
// must fail loudly, not silently run exact.
func TestDecodeRejectsUnknownPrecision(t *testing.T) {
	b, err := json.Marshal(precPlan(ex.PrecF32))
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(b), `"precision":"f32"`, `"precision":"f16"`, 1)
	var got Plan
	if err := json.Unmarshal([]byte(bad), &got); err == nil {
		t.Fatal("decoder accepted an unknown precision name")
	}
}

// TestValidRejectsOutOfRangePrecision: a hand-built plan with an
// impossible precision value must fail validation.
func TestValidRejectsOutOfRangePrecision(t *testing.T) {
	p := precPlan(ex.Precision(9))
	if err := p.Valid(); err == nil {
		t.Fatal("Valid accepted an out-of-range precision")
	}
}
