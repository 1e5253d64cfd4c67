// Package plan defines the tuner's execution Plan IR: the tuning
// decision for one matrix on one platform, promoted from an ephemeral
// in-process knob set to a first-class, versioned, JSON-serializable
// artifact. A Plan carries everything needed to skip re-tuning — the
// storage format, the full optimization knob set and the schedule
// policy — plus the provenance an audit needs: which
// optimizer decided, on which platform model, against which matrix
// structure (fingerprint), at what predicted/measured rate, produced
// by which library version.
//
// Plans are the single currency between analysis and execution: the
// optimizers in internal/opt produce them, internal/core binds them to
// a matrix fingerprint, internal/planstore persists them, and
// internal/native compiles them into prepared kernels (PreparePlan).
// Decoding is strict — unknown fields, version mismatches and
// internally inconsistent knob sets are rejected at the boundary, so a
// stale or hand-edited plan file can never silently select the wrong
// kernel.
package plan

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/sparsekit/spmvtuner/internal/classify"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// CurrentVersion is the Plan IR schema version. Decoding gates on it
// exactly: a plan produced by a different schema is re-tuned, never
// reinterpreted.
const CurrentVersion = 1

// Library identifies the producing library in a plan's provenance.
const Library = "spmvtuner"

// Plan is one serializable tuning decision.
//
//spmv:artifact
type Plan struct {
	// Version is the IR schema version (CurrentVersion when produced
	// by this library build).
	Version int
	// Fingerprint is the structural identity of the matrix the
	// decision was made for (matrix.Fingerprint); empty means the plan
	// is unbound (an optimizer's raw decision before the pipeline
	// binds it).
	Fingerprint string
	// Machine is the platform codename the decision was made on
	// ("knc", "knl", "bdw", "host").
	Machine string
	// Optimizer names the decision procedure: "profile-guided",
	// "feature-guided", "oracle", "trivial-single", ...
	Optimizer string
	// Classes is the detected bottleneck set; meaningful only when
	// HasClasses is true (the oracle and trivial optimizers never
	// classify).
	Classes    classify.Set
	HasClasses bool
	// Opt is the full optimization knob set the plan executes:
	// format-selecting knobs, kernel knobs and schedule policy.
	Opt ex.Optim
	// PreprocessSeconds is t_pre of Section IV-D: what the decision
	// cost when it was made — exactly the cost a store hit skips.
	PreprocessSeconds float64
	// PredictedGflops is the modeled rate of the chosen configuration
	// at decision time (0 when the decision was never evaluated).
	PredictedGflops float64
	// MeasuredGflops is the rate measured on real hardware at tune
	// time (0 when the plan only ever ran through the cost model).
	MeasuredGflops float64
	// KernelISA is the instruction set the dispatched kernels executed
	// on when the plan was bound ("avx512", "avx2", "scalar"; empty on
	// plans from before ISA dispatch existed). A warm-started plan
	// whose KernelISA differs from the running host's triggers a
	// re-measure: the knobs stay valid, but the recorded rate was
	// earned by different kernel bodies.
	KernelISA string
	// Library is the producing library's identity.
	Library string
}

// planJSON is the wire form: every knob spelled out by name, the
// schedule and format as strings, classes as a name list. It exists so
// the Go-side Plan can keep typed fields (classify.Set, ex.Optim)
// while the serialized form stays self-describing and diffable.
type planJSON struct {
	Version           int      `json:"version"`
	Fingerprint       string   `json:"fingerprint,omitempty"`
	Machine           string   `json:"machine,omitempty"`
	Optimizer         string   `json:"optimizer,omitempty"`
	Classes           []string `json:"classes"`
	HasClasses        bool     `json:"hasClasses,omitempty"`
	Format            string   `json:"format"`
	Schedule          string   `json:"schedule"`
	Vectorize         bool     `json:"vectorize,omitempty"`
	Prefetch          bool     `json:"prefetch,omitempty"`
	Unroll            bool     `json:"unroll,omitempty"`
	Compress          bool     `json:"compress,omitempty"`
	Split             bool     `json:"split,omitempty"`
	SellCS            bool     `json:"sellcs,omitempty"`
	Symmetric         bool     `json:"symmetric,omitempty"`
	Precision         string   `json:"precision,omitempty"`
	PreprocessSeconds float64  `json:"preprocessSeconds,omitempty"`
	PredictedGflops   float64  `json:"predictedGflops,omitempty"`
	MeasuredGflops    float64  `json:"measuredGflops,omitempty"`
	KernelISA         string   `json:"kernelISA,omitempty"`
	Library           string   `json:"library,omitempty"`
}

// Valid checks the plan's internal invariants: the schema version and
// a schedule policy String can render (so the wire form round-trips).
func (p Plan) Valid() error {
	if p.Version != CurrentVersion {
		return fmt.Errorf("plan: version %d, this library speaks %d", p.Version, CurrentVersion)
	}
	if _, err := sched.ParsePolicy(p.Opt.Schedule.String()); err != nil {
		return fmt.Errorf("plan: unserializable schedule policy %d", int(p.Opt.Schedule))
	}
	if !p.Opt.Format.Valid() {
		return fmt.Errorf("plan: unknown format %d", int(p.Opt.Format))
	}
	if p.Opt.Precision < ex.PrecF64 || p.Opt.Precision > ex.PrecF32 {
		return fmt.Errorf("plan: unknown precision %d", int(p.Opt.Precision))
	}
	if !p.HasClasses && !p.Classes.Empty() {
		return fmt.Errorf("plan: classes %s without HasClasses", p.Classes)
	}
	return nil
}

// ValidateFor checks that the plan may execute matrix m: the
// fingerprint must match (when the plan is bound) and a symmetric-
// storage plan requires an exactly symmetric matrix — the SSS kernel
// reconstructs the upper triangle by mirroring, which computes garbage
// on anything else. Like Fingerprint, this resolves m's symmetry kind
// and must not race with concurrent use of m.
func (p Plan) ValidateFor(m *matrix.CSR) error {
	fp := ""
	if p.Fingerprint != "" {
		fp = matrix.Fingerprint(m)
	}
	return p.ValidateForFingerprint(m, fp)
}

// ValidateForFingerprint is ValidateFor with m's fingerprint already
// in hand — warm-start paths that just keyed a store lookup on it
// skip the O(NNZ) re-hash.
func (p Plan) ValidateForFingerprint(m *matrix.CSR, fp string) error {
	if err := p.Valid(); err != nil {
		return err
	}
	if p.Fingerprint != "" && fp != p.Fingerprint {
		return fmt.Errorf("plan: fingerprint %s does not match matrix %s", p.Fingerprint, fp)
	}
	if p.Opt.Format == ex.FormatSSS && m.SymmetryKind() != matrix.SymSymmetric {
		return fmt.Errorf("plan: symmetric-storage plan for %s matrix", m.SymmetryKind())
	}
	return nil
}

// MarshalJSON implements json.Marshaler in the strict wire form.
// Invalid plans do not serialize.
func (p Plan) MarshalJSON() ([]byte, error) {
	if err := p.Valid(); err != nil {
		return nil, err
	}
	w := planJSON{
		Version:           p.Version,
		Fingerprint:       p.Fingerprint,
		Machine:           p.Machine,
		Optimizer:         p.Optimizer,
		HasClasses:        p.HasClasses,
		Format:            p.Opt.Format.String(),
		Schedule:          p.Opt.Schedule.String(),
		Vectorize:         p.Opt.Vectorize,
		Prefetch:          p.Opt.Prefetch,
		Unroll:            p.Opt.Unroll,
		Compress:          p.Opt.Format == ex.FormatDelta,
		Split:             p.Opt.Format == ex.FormatSplit,
		SellCS:            p.Opt.Format == ex.FormatSellCS,
		Symmetric:         p.Opt.Format == ex.FormatSSS,
		PreprocessSeconds: p.PreprocessSeconds,
		PredictedGflops:   p.PredictedGflops,
		MeasuredGflops:    p.MeasuredGflops,
		KernelISA:         p.KernelISA,
		Library:           p.Library,
	}
	if p.Opt.Precision != ex.PrecF64 {
		w.Precision = p.Opt.Precision.String()
	}
	w.Classes = make([]string, 0, 4)
	for _, c := range p.Classes.Classes() {
		w.Classes = append(w.Classes, c.String())
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler with full strictness:
// unknown fields are errors (a future schema's fields must not be
// silently dropped), the version gates exactly, the schedule and
// class names must parse, and the declared format must agree with the
// knob set — a plan whose "format" says one thing while its knobs
// select another was corrupted or hand-edited and is rejected.
func (p *Plan) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w planJSON
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("plan: decode: %w", err)
	}
	if w.Version != CurrentVersion {
		return fmt.Errorf("plan: version %d, this library speaks %d (re-tune to upgrade)", w.Version, CurrentVersion)
	}
	policy, err := sched.ParsePolicy(w.Schedule)
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	prec, ok := ex.ParsePrecision(w.Precision)
	if !ok {
		return fmt.Errorf("plan: unknown precision %q", w.Precision)
	}
	var set classify.Set
	for _, name := range w.Classes {
		c, ok := parseClass(name)
		if !ok {
			return fmt.Errorf("plan: unknown bottleneck class %q", name)
		}
		set = set.Add(c)
	}
	// Each format has its own bool on the wire; a file that sets
	// several runs the strongest of them.
	format := ex.FormatCSR
	for f, on := range [...]bool{ex.FormatDelta: w.Compress, ex.FormatSellCS: w.SellCS, ex.FormatSplit: w.Split, ex.FormatSSS: w.Symmetric} {
		if on {
			format = max(format, ex.Format(f))
		}
	}
	out := Plan{
		Version:     w.Version,
		Fingerprint: w.Fingerprint,
		Machine:     w.Machine,
		Optimizer:   w.Optimizer,
		Classes:     set,
		HasClasses:  w.HasClasses,
		Opt: ex.Optim{
			Vectorize: w.Vectorize,
			Prefetch:  w.Prefetch,
			Unroll:    w.Unroll,
			Format:    format,
			Schedule:  policy,
			Precision: prec,
		},
		PreprocessSeconds: w.PreprocessSeconds,
		PredictedGflops:   w.PredictedGflops,
		MeasuredGflops:    w.MeasuredGflops,
		KernelISA:         w.KernelISA,
		Library:           w.Library,
	}
	if err := out.Valid(); err != nil { // includes the classes/HasClasses consistency gate
		return err
	}
	if got := format.String(); got != w.Format {
		return fmt.Errorf("plan: declared format %q but knobs execute %q", w.Format, got)
	}
	*p = out
	return nil
}

// parseClass inverts classify.Class.String.
func parseClass(name string) (classify.Class, bool) {
	for _, c := range classify.AllClasses() {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}

// Encode renders the plan as indented JSON, the form plan files and
// spmvclassify -json emit.
func Encode(p Plan) ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses one plan from JSON, strictly.
func Decode(data []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return Plan{}, err
	}
	return p, nil
}
