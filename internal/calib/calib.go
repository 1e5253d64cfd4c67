// Package calib turns the live host into a calibrated "digital twin"
// of the paper's Table III rows: instead of pricing the machine with
// static desktop-class guesses, the host is measured once — a
// thread-count sweep of the STREAM triad for per-core and saturated
// main-memory bandwidth, a working-set sweep for the cache-resident
// rate, and a scalar multiply-add probe for the effective compute
// clock — and the result is persisted as a versioned, JSON-
// serializable Calibration artifact next to the plan store. Every
// later startup loads the artifact instead of re-probing; corrupt or
// stale files heal by re-measuring, exactly like internal/planstore.
//
// A Calibration applies to a machine.Model (Apply), giving the
// analytic cost model in internal/sim measured ceilings. That model is
// the twin: it re-prices stored plans before they are trusted on a new
// host (internal/core's validation gate), and it prices serving
// capacity — how many replicas a matrix mix at a target request rate
// needs (PlanCapacity).
package calib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"github.com/sparsekit/spmvtuner/internal/machine"
)

// CurrentVersion is the calibration artifact's schema version.
// Decoding gates on it exactly: an artifact produced by a different
// schema is re-measured, never reinterpreted.
const CurrentVersion = 1

// Library identifies the producing library in an artifact's
// provenance.
const Library = "spmvtuner"

// BandwidthPoint is one probe measurement: the triad rate observed at
// a thread count (thread sweep) or a working-set size (working-set
// sweep).
type BandwidthPoint struct {
	// Threads is the goroutine count the probe ran at.
	Threads int `json:"threads"`
	// Elems is the per-array element count of the triad's working set
	// (three float64 arrays: 24 bytes per element).
	Elems int `json:"elems"`
	// GBs is the measured rate in GB/s.
	GBs float64 `json:"gbs"`
}

// Calibration is one host's measured performance ceilings — the
// versioned, persistable artifact the digital twin is built from.
//
//spmv:artifact
type Calibration struct {
	// Version is the artifact schema version (CurrentVersion when
	// produced by this library build).
	Version int
	// Machine is the platform codename the probes ran on ("host").
	Machine string
	// NumCPU is the hardware-thread count visible at measurement time;
	// Cores and ThreadsPerCore are the physical-topology estimate. A
	// loaded artifact whose NumCPU no longer matches the running
	// machine is stale (see StaleFor).
	NumCPU         int
	Cores          int
	ThreadsPerCore int
	// PerCoreGBs is the single-thread triad rate: the bandwidth one
	// core draws when the chip-level links are idle.
	PerCoreGBs float64
	// MainGBs is the saturated main-memory triad rate — the paper's
	// B_max (Table III's STREAM row) for this host.
	MainGBs float64
	// LLCGBs is the cache-resident triad rate, measured with a
	// working set sized inside the LLC (replacing the old "main x 2"
	// guess).
	LLCGBs float64
	// ScalarGflops is the single-thread scalar multiply-add rate; the
	// twin derives an effective clock from it. 0 means not measured.
	ScalarGflops float64
	// UsableThreads is the smallest thread count that reached
	// (within tolerance) the saturated rate — the width past which
	// more goroutines stop adding bandwidth on this host. It is a
	// report: the native engine does not size kernels from it.
	UsableThreads int
	// ThreadSweep and WorkingSetSweep are the raw probe points the
	// ceilings were derived from, kept for inspection and audit.
	ThreadSweep     []BandwidthPoint
	WorkingSetSweep []BandwidthPoint
	// Library is the producing library's identity.
	Library string
}

// calibJSON is the wire form: self-describing field names so the
// artifact diffs and reviews like a plan file.
type calibJSON struct {
	Version         int              `json:"version"`
	Machine         string           `json:"machine"`
	NumCPU          int              `json:"numCPU"`
	Cores           int              `json:"cores"`
	ThreadsPerCore  int              `json:"threadsPerCore"`
	PerCoreGBs      float64          `json:"perCoreGBs"`
	MainGBs         float64          `json:"mainGBs"`
	LLCGBs          float64          `json:"llcGBs"`
	ScalarGflops    float64          `json:"scalarGflops,omitempty"`
	UsableThreads   int              `json:"usableThreads"`
	ThreadSweep     []BandwidthPoint `json:"threadSweep,omitempty"`
	WorkingSetSweep []BandwidthPoint `json:"workingSetSweep,omitempty"`
	Library         string           `json:"library,omitempty"`
}

// finitePositive reports a usable measured rate: probes on coarse
// clocks or broken timers can produce 0, +Inf or NaN, and any of those
// would poison every model the calibration feeds.
func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// Valid checks the artifact's internal invariants: the exact schema
// version, a topology whose Cores×ThreadsPerCore is exactly NumCPU (as
// Measure and FromModel write it: Apply copies the topology into the
// model the worker pool is sized from, so StaleFor's NumCPU check must
// bound it), and finite positive rates — a non-finite bandwidth is
// rejected here no matter how it was produced.
func (c Calibration) Valid() error {
	if c.Version != CurrentVersion {
		return fmt.Errorf("calib: version %d, this library speaks %d", c.Version, CurrentVersion)
	}
	// Dividing instead of multiplying keeps a hostile pair of factors
	// from overflowing into a match.
	if c.NumCPU < 1 || c.Cores < 1 || c.ThreadsPerCore < 1 ||
		c.NumCPU%c.Cores != 0 || c.NumCPU/c.Cores != c.ThreadsPerCore {
		return fmt.Errorf("calib: implausible topology %d cpus, %d cores x %d", c.NumCPU, c.Cores, c.ThreadsPerCore)
	}
	if c.UsableThreads < 1 || c.UsableThreads > c.NumCPU {
		return fmt.Errorf("calib: usable threads %d outside [1,%d]", c.UsableThreads, c.NumCPU)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"perCoreGBs", c.PerCoreGBs}, {"mainGBs", c.MainGBs}, {"llcGBs", c.LLCGBs}} {
		if !finitePositive(r.v) {
			return fmt.Errorf("calib: %s = %g is not a finite positive rate", r.name, r.v)
		}
	}
	if c.ScalarGflops != 0 && !finitePositive(c.ScalarGflops) {
		return fmt.Errorf("calib: scalarGflops = %g is not a finite positive rate", c.ScalarGflops)
	}
	return nil
}

// StaleFor reports whether the artifact was measured on a visibly
// different machine shape than base — the running host's topology —
// in which case it must be re-measured, not trusted.
func (c Calibration) StaleFor(base machine.Model) bool {
	return c.Machine != base.Codename || c.NumCPU != base.Threads()
}

// Apply returns base with every calibrated ceiling substituted:
// measured main/LLC/per-core bandwidths, the persisted core topology
// (re-aggregating the per-core L2 over it), and — when the scalar
// probe ran — an effective clock derived from the measured multiply-
// add rate. Fields the probes do not cover keep base's values.
func (c Calibration) Apply(base machine.Model) machine.Model {
	m := base
	m.StreamMainGBs = c.MainGBs
	m.StreamLLCGBs = c.LLCGBs
	m.PerCoreGBs = c.PerCoreGBs
	if c.Cores > 0 && base.Cores > 0 {
		perCoreL2 := base.L2Bytes / int64(base.Cores)
		m.Cores = c.Cores
		m.ThreadsPerCore = c.ThreadsPerCore
		m.L2Bytes = int64(c.Cores) * perCoreL2
	}
	if finitePositive(c.ScalarGflops) && base.ScalarFlopsPerCycle > 0 {
		m.FreqGHz = c.ScalarGflops / base.ScalarFlopsPerCycle
	}
	return m
}

// FromModel synthesizes an artifact from a model's static ceilings —
// the uncalibrated fallback, so capacity math and reporting have one
// shape whether or not probes ever ran. It is never persisted.
func FromModel(m machine.Model) Calibration {
	return Calibration{
		Version:        CurrentVersion,
		Machine:        m.Codename,
		NumCPU:         m.Threads(),
		Cores:          m.Cores,
		ThreadsPerCore: m.ThreadsPerCore,
		PerCoreGBs:     m.PerCoreGBs,
		MainGBs:        m.StreamMainGBs,
		LLCGBs:         m.StreamLLCGBs,
		UsableThreads:  m.Threads(),
		Library:        Library,
	}
}

// MarshalJSON implements json.Marshaler in the strict wire form.
// Invalid artifacts do not serialize.
func (c Calibration) MarshalJSON() ([]byte, error) {
	if err := c.Valid(); err != nil {
		return nil, err
	}
	return json.Marshal(calibJSON{
		Version:         c.Version,
		Machine:         c.Machine,
		NumCPU:          c.NumCPU,
		Cores:           c.Cores,
		ThreadsPerCore:  c.ThreadsPerCore,
		PerCoreGBs:      c.PerCoreGBs,
		MainGBs:         c.MainGBs,
		LLCGBs:          c.LLCGBs,
		ScalarGflops:    c.ScalarGflops,
		UsableThreads:   c.UsableThreads,
		ThreadSweep:     c.ThreadSweep,
		WorkingSetSweep: c.WorkingSetSweep,
		Library:         c.Library,
	})
}

// UnmarshalJSON implements json.Unmarshaler with full strictness:
// unknown fields are errors (a future schema's fields must not be
// silently dropped), the version gates exactly, and the decoded
// artifact must pass Valid — so a torn or hand-edited file can never
// hand the cost model a non-finite ceiling.
func (c *Calibration) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w calibJSON
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("calib: decode: %w", err)
	}
	if w.Version != CurrentVersion {
		return fmt.Errorf("calib: version %d, this library speaks %d (re-measure to upgrade)", w.Version, CurrentVersion)
	}
	out := Calibration{
		Version:         w.Version,
		Machine:         w.Machine,
		NumCPU:          w.NumCPU,
		Cores:           w.Cores,
		ThreadsPerCore:  w.ThreadsPerCore,
		PerCoreGBs:      w.PerCoreGBs,
		MainGBs:         w.MainGBs,
		LLCGBs:          w.LLCGBs,
		ScalarGflops:    w.ScalarGflops,
		UsableThreads:   w.UsableThreads,
		ThreadSweep:     w.ThreadSweep,
		WorkingSetSweep: w.WorkingSetSweep,
		Library:         w.Library,
	}
	if err := out.Valid(); err != nil {
		return err
	}
	*c = out
	return nil
}

// Encode renders the artifact as indented JSON, the on-disk file form.
func Encode(c Calibration) ([]byte, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses one artifact from JSON, strictly.
func Decode(data []byte) (Calibration, error) {
	var c Calibration
	if err := json.Unmarshal(data, &c); err != nil {
		return Calibration{}, err
	}
	return c, nil
}
