package spmvtuner

import (
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/plan"
)

// HostCalibration describes the performance ceilings the tuner's
// digital twin prices against: measured when WithCalibration is
// configured, the host model's static defaults otherwise.
type HostCalibration struct {
	// Machine is the platform codename the ceilings describe.
	Machine string
	// NumCPU, Cores and ThreadsPerCore are the host topology.
	NumCPU         int
	Cores          int
	ThreadsPerCore int
	// PerCoreGBs is the single-thread STREAM triad bandwidth; MainGBs
	// the saturated main-memory rate (the roofline's B_max); LLCGBs
	// the cache-resident rate.
	PerCoreGBs float64
	MainGBs    float64
	LLCGBs     float64
	// ScalarGflops is the measured single-thread scalar multiply-add
	// rate; zero when not probed.
	ScalarGflops float64
	// UsableThreads is the smallest thread count that saturated memory
	// bandwidth in calibration's thread sweep: a bandwidth-saturation
	// report, not the kernel width. Kernels run on min(hardware
	// threads, GOMAXPROCS) threads whatever it says.
	UsableThreads int
	// Calibrated reports whether the ceilings were measured on the
	// hardware (WithCalibration) rather than taken from static
	// defaults. Probed reports whether THIS Tuner ran the probes:
	// false with Calibrated true means the persisted artifact was
	// loaded, costing zero probe time.
	Calibrated bool
	Probed     bool
}

// Calibration reports the ceilings the tuner's analysis and capacity
// planning price against.
func (t *Tuner) Calibration() HostCalibration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return HostCalibration{
		Machine:        t.cal.Machine,
		NumCPU:         t.cal.NumCPU,
		Cores:          t.cal.Cores,
		ThreadsPerCore: t.cal.ThreadsPerCore,
		PerCoreGBs:     t.cal.PerCoreGBs,
		MainGBs:        t.cal.MainGBs,
		LLCGBs:         t.cal.LLCGBs,
		ScalarGflops:   t.cal.ScalarGflops,
		UsableThreads:  t.cal.UsableThreads,
		Calibrated:     t.calOn,
		Probed:         t.calProbed,
	}
}

// priceOnTwin analytically prices one matrix on the tuner's digital
// twin — the stored plan when one exists, a twin-decided plan
// otherwise. Zero hardware measurements.
func (t *Tuner) priceOnTwin(cm *matrix.CSR) (plan.Plan, ex.Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cm.SymmetryKind() // under t.mu, as in Tune: the detection caches onto the matrix
	return t.pipeline.PriceOn(t.twin, cm)
}
