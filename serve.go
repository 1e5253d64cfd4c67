package spmvtuner

import (
	"fmt"

	"github.com/sparsekit/spmvtuner/internal/calib"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/serve"
)

// Serving errors, re-exported so callers can match them with
// errors.Is.
var (
	// ErrServerClosed reports an operation on a closed Server.
	ErrServerClosed = serve.ErrClosed
	// ErrNotRegistered reports a request against an unknown (or
	// deregistered) matrix name.
	ErrNotRegistered = serve.ErrNotFound
	// ErrServerBusy reports a full per-matrix request queue —
	// backpressure, not failure; retry or shed load.
	ErrServerBusy = serve.ErrBusy
)

// ServerConfig tunes a Server. The zero value coalesces up to 8
// requests per batch, queues up to 256 requests per matrix, and sets
// no memory budget. MaxBatch of 1 disables coalescing; MemoryBudget
// bounds the resident bytes of prepared kernels, evicting the least
// recently used, which re-prepare from their stored plan (never
// re-tune) on their next request; a full queue fails submissions with
// ErrServerBusy.
type ServerConfig = serve.Config

// ServerStats is one matrix's serving counters: traffic, coalescing
// effectiveness, latency percentiles, achieved throughput, the kernel
// cache's behavior, the plan the kernel runs (host plans in their
// canonical form) and the thread width it runs at. See docs/guide/serving.md for how to read them.
type ServerStats = serve.MatrixStats

// Server is a multi-tenant SpMV service over one Tuner: many
// registered matrices, many concurrent callers. Concurrent MulVec
// requests against the same matrix are coalesced into one MulVecBatch
// call per batch (one dispatch for the batch; a CSR float64 plan also
// streams the matrix once per group of 8 or 4 requests, every other
// plan multiplies them one by one), and prepared kernels live in an
// LRU cache under
// the configured memory budget, re-preparing from the tuner's plan
// store after eviction. All methods are safe for concurrent use.
type Server struct {
	inner *serve.Server
	t     *Tuner
}

// NewServer builds a server over the tuner, which supplies tuning, the
// plan store, and the worker pool. Close the server before closing the
// tuner.
func NewServer(t *Tuner, cfg ServerConfig) *Server {
	if t == nil {
		panic("spmvtuner: NewServer requires a Tuner")
	}
	return &Server{
		inner: serve.New(tunerEngine{t}, cfg),
		t:     t,
	}
}

// Register adds a named matrix. Tuning is lazy: the first request (or
// an explicit Warm) prepares the kernel.
func (s *Server) Register(name string, m *Matrix) error {
	if m == nil {
		return fmt.Errorf("spmvtuner: Register %q: nil matrix", name)
	}
	return s.inner.Register(name, m.csr)
}

// Deregister removes a matrix, failing its pending requests and
// releasing its prepared resources. In-flight batches complete.
func (s *Server) Deregister(name string) error { return s.inner.Deregister(name) }

// Names lists the registered matrices, sorted.
func (s *Server) Names() []string { return s.inner.Names() }

// MulVec computes y = A*x against the named matrix, coalescing with
// concurrent requests for the same matrix; it blocks until y is
// written (or an error). x and y must not alias, nor overlap any other
// in-flight request's buffers.
func (s *Server) MulVec(name string, x, y []float64) error {
	return s.inner.MulVec(name, x, y)
}

// Warm tunes and compiles the named matrix's kernel now, so the first
// request does not pay for it.
func (s *Server) Warm(name string) error { return s.inner.Warm(name) }

// Stats snapshots every registered matrix's counters, sorted by name.
func (s *Server) Stats() []ServerStats { return s.inner.Stats() }

// StatsFor snapshots one matrix's counters.
func (s *Server) StatsFor(name string) (ServerStats, bool) { return s.inner.StatsFor(name) }

// Shape reports the named matrix's dimensions. Unlike StatsFor it
// takes no snapshot of the serving counters, so a per-request caller
// does not contend with the dispatcher's latency accounting.
func (s *Server) Shape(name string) (rows, cols int, ok bool) {
	cm, ok := s.inner.MatrixFor(name)
	if !ok {
		return 0, 0, false
	}
	return cm.NRows, cm.NCols, true
}

// Close stops every dispatcher, fails pending requests, and releases
// resident kernels. The tuner stays open. Idempotent.
func (s *Server) Close() error { return s.inner.Close() }

// CapacityDemand is one registered matrix's target traffic for
// capacity planning.
type CapacityDemand struct {
	// Name is the registered matrix name.
	Name string
	// RequestsPerSec is the target MulVec arrival rate.
	RequestsPerSec float64
}

// MatrixCapacity is the twin's analytic price of one demand: what a
// single request costs on the calibrated host model.
type MatrixCapacity struct {
	Name            string
	RequestsPerSec  float64
	Plan            string
	PredictedGflops float64
	SecondsPerOp    float64
	BytesPerOp      float64
}

// CapacityReport is a replica-count prediction for a demand mix.
type CapacityReport struct {
	// Replicas is the predicted number of host replicas needed to
	// serve the mix at the configured headroom.
	Replicas int
	// Binding names the resource that set the count: "compute" or
	// "bandwidth" (SpMV is memory-bound on most hosts, so bandwidth
	// usually binds — the roofline argument, priced with this host's
	// ceilings).
	Binding string
	// ComputeUtil and BandwidthUtil are the mix's aggregate demand in
	// units of one replica's budget.
	ComputeUtil   float64
	BandwidthUtil float64
	// Headroom echoes the target utilization the fleet was sized for;
	// MainGBs the bandwidth budget per replica it was priced against.
	Headroom float64
	MainGBs  float64
	// PerMatrix itemizes each demand's analytic price.
	PerMatrix []MatrixCapacity
}

// CapacityPlan predicts how many replicas of this host the given
// traffic mix needs. Every registered matrix named in the mix is
// priced analytically on the tuner's digital twin — the stored plan
// when one exists, a twin-decided plan otherwise — and the aggregate
// compute occupancy and memory traffic are divided by one replica's
// measured budget, derated by headroom (target utilization in (0,1],
// e.g. 0.7 sizes the fleet to run at 70%). No kernel runs and no
// hardware is probed: with a persisted calibration and plan store the
// prediction is identical across restarts. Naming an unregistered
// matrix fails with ErrNotRegistered.
func (s *Server) CapacityPlan(demands []CapacityDemand, headroom float64) (CapacityReport, error) {
	cds := make([]calib.Demand, 0, len(demands))
	per := make([]MatrixCapacity, 0, len(demands))
	for _, d := range demands {
		cm, ok := s.inner.MatrixFor(d.Name)
		if !ok {
			return CapacityReport{}, fmt.Errorf("spmvtuner: capacity plan %q: %w", d.Name, ErrNotRegistered)
		}
		pl, r := s.t.priceOnTwin(cm)
		cds = append(cds, calib.Demand{
			Name:           d.Name,
			RequestsPerSec: d.RequestsPerSec,
			SecondsPerOp:   r.Seconds,
			BytesPerOp:     float64(r.MemBytes),
			Gflops:         r.Gflops,
		})
		per = append(per, MatrixCapacity{
			Name:            d.Name,
			RequestsPerSec:  d.RequestsPerSec,
			Plan:            pl.Opt.String(),
			PredictedGflops: r.Gflops,
			SecondsPerOp:    r.Seconds,
			BytesPerOp:      float64(r.MemBytes),
		})
	}
	cal := s.t.cal
	got, err := cal.PlanCapacity(cds, headroom)
	if err != nil {
		return CapacityReport{}, err
	}
	return CapacityReport{
		Replicas:      got.Replicas,
		Binding:       got.Binding,
		ComputeUtil:   got.ComputeUtil,
		BandwidthUtil: got.BandwidthUtil,
		Headroom:      got.Headroom,
		MainGBs:       cal.MainGBs,
		PerMatrix:     per,
	}, nil
}

// tunerEngine adapts the facade Tuner to the serving layer's Engine:
// Prepare is a Tune (warm-starting from the tuner's plan store),
// Release the tuner's per-matrix release path.
type tunerEngine struct{ t *Tuner }

func (e tunerEngine) Prepare(cm *matrix.CSR) (k serve.Kernel, info serve.PrepInfo, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("tune failed: %v", p)
		}
	}()
	tuned := e.t.Tune(&Matrix{csr: cm})
	info = serve.PrepInfo{
		Warm:    tuned.info.Warm,
		Plan:    tuned.info.Optimizations,
		Gflops:  tuned.info.OptimizedGflops,
		Threads: tuned.prep.Threads(),
	}
	if mb, ok := tuned.prep.(interface{ MemBytes() int64 }); ok {
		info.Bytes = mb.MemBytes()
	} else {
		info.Bytes = cm.Bytes()
	}
	return tuned, info, nil
}

func (e tunerEngine) Release(cm *matrix.CSR) { e.t.Release(&Matrix{csr: cm}) }
