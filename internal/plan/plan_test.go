package plan

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/classify"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// randomPlan draws a valid plan with randomized knob combinations —
// the property-test generator. Schedules and block widths range over
// everything the engine accepts.
func randomPlan(rng *rand.Rand) Plan {
	o := ex.Optim{
		Vectorize: rng.Intn(2) == 0,
		Prefetch:  rng.Intn(2) == 0,
		Unroll:    rng.Intn(2) == 0,
		Format:    ex.Format(rng.Intn(int(ex.FormatSSS) + 1)),
		Schedule:  sched.Policy(rng.Intn(5)),
		Precision: ex.Precision(rng.Intn(2)),
	}
	var set classify.Set
	has := rng.Intn(2) == 0
	if has {
		for _, c := range classify.AllClasses() {
			if rng.Intn(2) == 0 {
				set = set.Add(c)
			}
		}
	}
	return Plan{
		Version:           CurrentVersion,
		Fingerprint:       "v1-100x100-500-gen-0123456789abcdef",
		Machine:           []string{"knc", "knl", "bdw", "host"}[rng.Intn(4)],
		Optimizer:         []string{"profile-guided", "feature-guided", "oracle"}[rng.Intn(3)],
		Classes:           set,
		HasClasses:        has,
		Opt:               o,
		PreprocessSeconds: rng.Float64() * 10,
		PredictedGflops:   rng.Float64() * 50,
		MeasuredGflops:    rng.Float64() * 50,
		KernelISA:         []string{"", "scalar", "avx2", "avx512"}[rng.Intn(4)],
		Library:           Library,
	}
}

// TestJSONRoundTripProperty: decode(encode(p)) must be a fixed point
// for every valid plan — randomized over the full knob space.
func TestJSONRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := randomPlan(rng)
		data, err := Encode(p)
		if err != nil {
			t.Fatalf("iter %d: encode %+v: %v", i, p, err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("iter %d: decode %s: %v", i, data, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("iter %d: round trip drifted:\n in  %+v\n out %+v\n json %s", i, p, back, data)
		}
		// Second trip must be byte-identical (canonical form).
		data2, err := Encode(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Fatalf("iter %d: encode not canonical:\n%s\nvs\n%s", i, data, data2)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	p := randomPlan(rand.New(rand.NewSource(1)))
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `"version"`, `"turboMode": true, "version"`, 1)
	if _, err := Decode([]byte(tampered)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestDecodeRejectsVersionBump(t *testing.T) {
	p := randomPlan(rand.New(rand.NewSource(2)))
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = CurrentVersion + 1
	bumped, _ := json.Marshal(raw)
	if _, err := Decode(bumped); err == nil {
		t.Fatal("future version accepted")
	}
	raw["version"] = 0
	zeroed, _ := json.Marshal(raw)
	if _, err := Decode(zeroed); err == nil {
		t.Fatal("versionless plan accepted")
	}
}

func TestDecodeRejectsFormatKnobMismatch(t *testing.T) {
	p := Plan{Version: CurrentVersion, Opt: ex.Optim{Format: ex.FormatDelta}}
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	// Claim CSR while the knobs execute DeltaCSR.
	tampered := strings.Replace(string(data), `"format": "delta-csr"`, `"format": "csr"`, 1)
	if tampered == string(data) {
		t.Fatalf("fixture drifted: %s", data)
	}
	if _, err := Decode([]byte(tampered)); err == nil {
		t.Fatal("format/knob mismatch accepted")
	}
}

func TestDecodeRejectsBadScheduleAndClasses(t *testing.T) {
	p := Plan{Version: CurrentVersion}
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(data), `"schedule": "static-nnz"`, `"schedule": "simd-magic"`, 1)
	if _, err := Decode([]byte(bad)); err == nil {
		t.Fatal("unknown schedule accepted")
	}
	bad = strings.Replace(string(data), `"classes": []`, `"classes": ["GPU"]`, 1)
	if _, err := Decode([]byte(bad)); err == nil {
		t.Fatal("unknown class accepted")
	}
	bad = strings.Replace(string(data), `"classes": []`, `"classes": ["MB"]`, 1)
	if _, err := Decode([]byte(bad)); err == nil {
		t.Fatal("classes without hasClasses accepted")
	}
}

func TestValidRejectsBoundKernelsAndBadWidths(t *testing.T) {
	// A bound probe is an exec.Config field, not a knob of Optim, so no
	// Plan value can hold one; a plan file naming a probe knob fails
	// as an unknown field.
	for _, knob := range []string{"regularizeX", "unitStride", "probe"} {
		bad := strings.Replace(hugeBlockWidthPlan, `"blockWidth":1099511627776`, `"`+knob+`":true`, 1)
		if _, err := Decode([]byte(bad)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Fatalf("plan naming %s: err = %v, want an unknown-field error", knob, err)
		}
	}
	// Batch blocking is an engine rule, not a plan knob: a plan file
	// naming any block width, even one an older library wrote, is
	// rejected.
	for _, w := range []string{"-2", "0", "1", "4", "8", "9"} {
		if _, err := Decode([]byte(strings.Replace(hugeBlockWidthPlan, "1099511627776", w, 1))); err == nil {
			t.Fatalf("plan with blockWidth %s accepted", w)
		}
	}
	// Classes without HasClasses must fail at Valid/Marshal time, not
	// only at decode — otherwise a store could persist an entry it can
	// never read back.
	if err := (Plan{Version: CurrentVersion, Classes: classify.NewSet(classify.MB)}).Valid(); err == nil {
		t.Fatal("classes without HasClasses accepted")
	}
}

// hugeBlockWidthPlan is an otherwise well-formed plan file carrying a
// 2^40 block width, the hostile form of a field plans no longer have.
const hugeBlockWidthPlan = `{"version":1,"machine":"host","classes":[],"format":"sss","schedule":"static-nnz","blockWidth":1099511627776,"symmetric":true}`

func TestDecodeRejectsHugeBlockWidth(t *testing.T) {
	if _, err := Decode([]byte(hugeBlockWidthPlan)); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("decode of a 2^40 block width = %v, want an unknown-field error", err)
	}
	ok := strings.Replace(hugeBlockWidthPlan, `"blockWidth":1099511627776,`, "", 1)
	if _, err := Decode([]byte(ok)); err != nil {
		t.Fatalf("the same plan without the field rejected: %v", err)
	}
}

// TestValidateForStalePlans covers the three staleness axes: a
// fingerprint from a different structure, a schema version bump, and
// a symmetric-storage plan aimed at a general matrix.
func TestValidateForStalePlans(t *testing.T) {
	m := gen.Banded(200, 2, 1, 1)
	bound := Plan{Version: CurrentVersion, Fingerprint: matrix.Fingerprint(m)}
	if err := bound.ValidateFor(m); err != nil {
		t.Fatalf("matching plan rejected: %v", err)
	}

	other := gen.Banded(201, 2, 1, 1)
	if err := bound.ValidateFor(other); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}

	bumped := bound
	bumped.Version = CurrentVersion + 1
	if err := bumped.ValidateFor(m); err == nil {
		t.Fatal("version bump accepted")
	}

	sym := gen.Poisson2D(12, 12)
	symPlan := Plan{Version: CurrentVersion, Opt: ex.Optim{Format: ex.FormatSSS}}
	if err := symPlan.ValidateFor(sym); err != nil {
		t.Fatalf("symmetric plan rejected for symmetric matrix: %v", err)
	}
	general := gen.UniformRandom(200, 4, 3)
	if err := symPlan.ValidateFor(general); err == nil {
		t.Fatal("symmetric plan accepted for general matrix")
	}

	unbound := Plan{Version: CurrentVersion}
	if err := unbound.ValidateFor(general); err != nil {
		t.Fatalf("unbound plan rejected: %v", err)
	}
}

func TestFormatNameCoversEveryFormat(t *testing.T) {
	seen := map[string]bool{}
	for f := ex.FormatCSR; f <= ex.FormatSSS; f++ {
		n := f.String()
		if !f.Valid() || n == "" || seen[n] {
			t.Fatalf("format %d renders %q (dup=%v)", f, n, seen[n])
		}
		seen[n] = true
		data, err := Encode(Plan{Version: CurrentVersion, Opt: ex.Optim{Format: f}})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), `"format": "`+n+`"`) {
			t.Fatalf("format %s encodes as %s", n, data)
		}
	}
	if f := ex.FormatSSS + 1; f.Valid() {
		t.Fatalf("format %d past FormatSSS is valid", f)
	}
	if _, err := Encode(Plan{Version: CurrentVersion, Opt: ex.Optim{Format: ex.FormatSSS + 1}}); err == nil {
		t.Fatal("unknown format encoded")
	}
}

// TestDecodeMultiFormatWireRunsStrongest: a wire that sets several
// format bools decodes to the strongest of them, re-encodes with that
// format's bool alone, and still fails when its format string names
// another format.
func TestDecodeMultiFormatWireRunsStrongest(t *testing.T) {
	for _, c := range []struct {
		name, wire string
		want       ex.Optim
	}{
		// The retired-precision testdata plan's knobs, without its
		// retired precision.
		{"compress+symmetric", `{"version": 1, "machine": "bdw", "classes": ["MB"], "hasClasses": true,
			"format": "sss", "schedule": "static-nnz", "vectorize": true, "compress": true, "symmetric": true}`,
			ex.Optim{Format: ex.FormatSSS, Vectorize: true}},
		// A modeled CompressVec+SplitRows plan as the four-bool encoder
		// wrote it.
		{"compress+split", `{"version": 1, "machine": "knl", "classes": [],
			"format": "split-csr", "schedule": "static-nnz", "vectorize": true, "compress": true, "split": true}`,
			ex.Optim{Format: ex.FormatSplit, Vectorize: true}},
	} {
		p, err := Decode([]byte(c.wire))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.Opt != c.want {
			t.Fatalf("%s: decoded %v, want %v", c.name, p.Opt, c.want)
		}
		data, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), `"compress"`) {
			t.Fatalf("%s: re-encoded with the superseded bool: %s", c.name, data)
		}
		for _, name := range []string{"csr", "delta-csr"} {
			tampered := strings.Replace(c.wire, `"format": "`+c.want.Format.String()+`"`, `"format": "`+name+`"`, 1)
			if _, err := Decode([]byte(tampered)); err == nil {
				t.Fatalf("%s: format %q accepted for knobs that run %s", c.name, name, c.want.Format)
			}
		}
	}
}
