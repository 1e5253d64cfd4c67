// Package serve is the multi-tenant SpMV serving layer: a registry of
// named matrices, each lazily tuned once through a shared Engine and
// served by a per-matrix dispatcher that coalesces concurrent
// independent single-vector requests into one MulVecBatch call per
// batch: one queue hand-off and one kernel lock for the batch, and on
// a CSR float64 plan one matrix stream per group of 8 or 4 requests
// (every other plan runs the batch vector by vector; see
// docs/guide/batching.md). A batch is what is queued when the
// dispatcher comes free plus what arrives across one scheduler yield;
// no timer holds a request back. Prepared kernels live in an
// LRU-evicted cache under a configurable memory budget; an evicted
// matrix re-prepares from its stored plan on the next request, with
// zero new tuning measurements when the engine carries a plan store.
// Per-matrix counters (requests, batches, batch width, latency
// percentiles, achieved Gflops) feed the stats endpoint and the
// `spmvbench -exp serve` experiment.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparsekit/spmvtuner/internal/cache"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/stats"
)

// Sentinel errors callers match with errors.Is.
var (
	// ErrClosed reports an operation on a closed server.
	ErrClosed = errors.New("server closed")
	// ErrNotFound reports an unregistered (or deregistered) matrix.
	ErrNotFound = errors.New("matrix not registered")
	// ErrBusy reports a full request queue: backpressure, not failure —
	// the caller should retry or shed load.
	ErrBusy = errors.New("request queue full")
)

// Defaults for the zero Config.
const (
	// DefaultMaxBatch matches the widest register-blocked group:
	// coalescing past it would just split into multiple groups.
	DefaultMaxBatch = 8
	// DefaultQueueDepth bounds each matrix's pending requests; beyond
	// it submissions fail fast with ErrBusy.
	DefaultQueueDepth = 256
	// latencySamples is the per-matrix reservoir of recent request
	// latencies the percentile stats are computed over.
	latencySamples = 2048
)

// Config tunes the server. The zero value serves with the defaults
// above and no memory budget.
type Config struct {
	// MaxBatch caps how many requests one dispatch coalesces (zero
	// or less means DefaultMaxBatch; 1 disables coalescing — the
	// sequential baseline).
	MaxBatch int
	// MemoryBudget bounds the resident bytes of prepared kernels;
	// least-recently-used kernels are evicted (and their engine
	// resources released) to stay under it. The kernel serving the
	// current request is never evicted. Zero means unlimited.
	MemoryBudget int64
	// QueueDepth bounds each matrix's pending request queue; beyond it
	// submissions fail with ErrBusy (zero or less means
	// DefaultQueueDepth).
	QueueDepth int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch < 1 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = DefaultQueueDepth
	}
	return c
}

// request is one in-flight MulVec.
type request struct {
	x, y []float64
	enq  time.Time
	done chan error
}

// entry is one registered matrix: its dispatcher channel, lazily
// prepared kernel, and counters.
type entry struct {
	name string
	m    *matrix.CSR
	ch   chan *request
	stop chan struct{}

	// prepMu serializes kernel preparation for this entry (the
	// dispatcher and Warm may race); never held while serving.
	prepMu sync.Mutex

	mu     sync.Mutex
	dead   bool     // guarded by mu; deregistered or closed: no further submissions
	kernel Kernel   // guarded by mu; nil until first prepared, or after eviction
	bytes  int64    // guarded by mu
	info   PrepInfo // guarded by mu

	// sm guards the counters (written per batch by the dispatcher,
	// read by Stats).
	sm          sync.Mutex
	requests    uint64    // guarded by sm
	batches     uint64    // guarded by sm
	widthSum    uint64    // guarded by sm
	busySeconds float64   // guarded by sm
	flops       float64   // guarded by sm
	tunes       uint64    // guarded by sm
	warmPreps   uint64    // guarded by sm
	evictions   uint64    // guarded by sm
	errors      uint64    // guarded by sm
	lat         []float64 // guarded by sm; ring of recent request latencies (seconds)
	latPos      int       // guarded by sm

	// lastUse orders LRU decisions without taking locks on the hot
	// path (UnixNano of the last served batch).
	lastUse atomic.Int64

	// Dispatcher-owned scratch for batch headers (single goroutine).
	xs, ys [][]float64
}

// MatrixStats is one matrix's serving counters, as exposed by the
// stats endpoint.
type MatrixStats struct {
	Name string
	Rows int
	Cols int
	NNZ  int

	// Requests counts served single-vector multiplies; Batches counts
	// the coalesced dispatches that carried them. MeanBatchWidth is
	// Requests/Batches — the coalescing the traffic actually achieved.
	Requests       uint64
	Batches        uint64
	MeanBatchWidth float64

	// Latency percentiles over the recent-request reservoir, measured
	// submit-to-completion (queueing + coalescing + execution).
	P50LatencyMicros float64
	P99LatencyMicros float64

	// AchievedGflops is 2*NNZ*Requests over the kernel-execution time:
	// the throughput the coalesced kernel sustained (excludes queueing).
	AchievedGflops float64

	// Tunes counts cold preparations (classification + sweep ran);
	// WarmPrepares counts plan-store warm starts, including every
	// post-eviction re-preparation; Evictions counts budget evictions.
	Tunes        uint64
	WarmPrepares uint64
	Evictions    uint64
	// Errors counts failed requests (preparation failures, panics).
	Errors uint64

	// Resident reports whether the prepared kernel is currently in
	// memory, and ResidentBytes its accounted footprint.
	Resident      bool
	ResidentBytes int64
	// Plan is the optimization summary of the last preparation, e.g.
	// "compress+vec@static-nnz", with Gflops its tune-time rate and
	// Threads the width its kernel runs at.
	Plan    string
	Gflops  float64
	Threads int
}

// Server coalesces concurrent MulVec traffic over many registered
// matrices. All methods are safe for concurrent use.
type Server struct {
	engine Engine
	cfg    Config

	mu      sync.Mutex
	entries map[string]*entry // guarded by mu
	budget  *cache.Budget     // guarded by mu
	closed  bool              // guarded by mu

	wg sync.WaitGroup
}

// New builds a server over the engine. The caller retains ownership of
// the engine (Close does not close it): one engine — one plan store,
// one worker pool — typically backs every server in the process.
func New(engine Engine, cfg Config) *Server {
	if engine == nil {
		panic("serve: nil engine")
	}
	cfg = cfg.withDefaults()
	return &Server{
		engine:  engine,
		cfg:     cfg,
		entries: make(map[string]*entry),
		budget:  cache.NewBudget(cfg.MemoryBudget),
	}
}

// Register adds a named matrix to the registry and starts its
// dispatcher. Tuning is lazy: the first request (or an explicit Warm)
// prepares the kernel.
func (s *Server) Register(name string, m *matrix.CSR) error {
	if name == "" {
		return fmt.Errorf("serve: empty matrix name")
	}
	if m == nil {
		return fmt.Errorf("serve: nil matrix %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("serve: register %q: %w", name, ErrClosed)
	}
	if _, ok := s.entries[name]; ok {
		return fmt.Errorf("serve: matrix %q already registered", name)
	}
	e := &entry{
		name: name,
		m:    m,
		ch:   make(chan *request, s.cfg.QueueDepth),
		stop: make(chan struct{}),
		lat:  make([]float64, 0, latencySamples),
	}
	s.entries[name] = e
	s.wg.Add(1)
	go s.dispatch(e)
	return nil
}

// Deregister removes a matrix: pending requests fail with ErrNotFound,
// its kernel is released, and the name becomes reusable. In-flight
// batches complete.
func (s *Server) Deregister(name string) error {
	s.mu.Lock()
	e := s.entries[name]
	if e != nil {
		delete(s.entries, name)
	}
	s.mu.Unlock()
	if e == nil {
		return fmt.Errorf("serve: deregister %q: %w", name, ErrNotFound)
	}
	close(e.stop)
	return nil
}

// Names lists the registered matrices, sorted.
func (s *Server) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.entries))
	for n := range s.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MatrixFor returns the registered matrix under name. Capacity
// planning uses it to price each tenant's SpMV analytically without
// touching the dispatcher.
func (s *Server) MatrixFor(name string) (*matrix.CSR, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[name]
	if e == nil {
		return nil, false
	}
	return e.m, true
}

// lookup fetches a live entry.
func (s *Server) lookup(name string) (*entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("serve: %q: %w", name, ErrClosed)
	}
	e := s.entries[name]
	if e == nil {
		return nil, fmt.Errorf("serve: %q: %w", name, ErrNotFound)
	}
	return e, nil
}

// MulVec computes y = A*x against the named matrix, coalescing with
// whatever concurrent requests target the same matrix. It blocks until
// the result is in y (or an error). x and y must not alias, and — as
// with every batched path — must not overlap any OTHER in-flight
// request's buffers.
func (s *Server) MulVec(name string, x, y []float64) error {
	e, err := s.lookup(name)
	if err != nil {
		return err
	}
	if len(x) != e.m.NCols || len(y) != e.m.NRows {
		return fmt.Errorf("serve: %q: dimension mismatch: x=%d y=%d for %dx%d",
			name, len(x), len(y), e.m.NRows, e.m.NCols)
	}
	if matrix.Aliased(x, y) {
		return fmt.Errorf("serve: %q: input and output must not alias", name)
	}
	r := &request{x: x, y: y, enq: time.Now(), done: make(chan error, 1)}
	e.mu.Lock()
	if e.dead {
		e.mu.Unlock()
		return fmt.Errorf("serve: %q: %w", name, ErrNotFound)
	}
	select {
	case e.ch <- r:
		e.mu.Unlock()
	default:
		e.mu.Unlock()
		return fmt.Errorf("serve: %q: %w", name, ErrBusy)
	}
	return <-r.done
}

// Warm prepares the named matrix's kernel now (tuning it cold if its
// plan is nowhere stored), so first-request latency excludes tuning.
func (s *Server) Warm(name string) error {
	e, err := s.lookup(name)
	if err != nil {
		return err
	}
	_, err = s.kernelFor(e)
	return err
}

// Stats snapshots every matrix's counters, sorted by name.
func (s *Server) Stats() []MatrixStats {
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	out := make([]MatrixStats, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// StatsFor snapshots one matrix's counters.
func (s *Server) StatsFor(name string) (MatrixStats, bool) {
	s.mu.Lock()
	e := s.entries[name]
	s.mu.Unlock()
	if e == nil {
		return MatrixStats{}, false
	}
	return e.snapshot(), true
}

// Close stops every dispatcher (failing pending requests with
// ErrClosed), releases resident kernels, and waits for in-flight
// batches to complete. Idempotent. The engine stays open — the caller
// owns it.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	entries := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.entries = make(map[string]*entry)
	s.mu.Unlock()
	for _, e := range entries {
		close(e.stop)
	}
	s.wg.Wait()
	return nil
}

// dispatch is the per-matrix serving loop: collect a batch, execute,
// repeat. One goroutine per entry.
func (s *Server) dispatch(e *entry) {
	defer s.wg.Done()
	for {
		select {
		case <-e.stop:
			s.shutdownEntry(e)
			return
		case r := <-e.ch:
			s.serveBatch(e, s.collect(e, r))
		}
	}
}

// collect coalesces a batch without a timer: it drains what is
// queued, and an under-filled batch yields the processor once and
// drains again. When a P is free the yield returns at once, so the
// batch leaves with what was queued; at GOMAXPROCS=1 the yield runs
// the clients the previous batch just answered, so their next
// requests join this batch instead of each leaving alone.
func (s *Server) collect(e *entry, first *request) []*request {
	batch := append(make([]*request, 0, s.cfg.MaxBatch), first)
	for yielded := false; len(batch) < s.cfg.MaxBatch; {
		select {
		case r := <-e.ch:
			batch = append(batch, r)
		default:
			if yielded {
				return batch
			}
			runtime.Gosched()
			yielded = true
		}
	}
	return batch
}

// serveBatch prepares the kernel if needed, executes the coalesced
// multiply, and completes every request.
func (s *Server) serveBatch(e *entry, batch []*request) {
	k, err := s.kernelFor(e)
	if err == nil {
		start := time.Now()
		err = runKernel(e, k, batch)
		secs := time.Since(start).Seconds()
		e.lastUse.Store(time.Now().UnixNano())
		s.touch(e)
		e.recordBatch(len(batch), secs, err)
	} else {
		e.recordFailure(len(batch))
	}
	now := time.Now()
	for _, r := range batch {
		e.recordLatency(now.Sub(r.enq).Seconds())
		r.done <- err
	}
}

// runKernel executes one batch, converting kernel panics (aliased
// cross-request buffers, corrupted inputs) into request errors so the
// dispatcher survives hostile traffic.
func runKernel(e *entry, k Kernel, batch []*request) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: %q: kernel panic: %v", e.name, p)
		}
	}()
	if len(batch) == 1 {
		k.MulVec(batch[0].x, batch[0].y)
		return nil
	}
	e.xs = e.xs[:0]
	e.ys = e.ys[:0]
	for _, r := range batch {
		e.xs = append(e.xs, r.x)
		e.ys = append(e.ys, r.y)
	}
	k.MulVecBatch(e.xs, e.ys)
	return nil
}

// kernelFor returns the entry's kernel, preparing (and admitting it to
// the budget, possibly evicting others) when absent.
func (s *Server) kernelFor(e *entry) (Kernel, error) {
	e.mu.Lock()
	k := e.kernel
	e.mu.Unlock()
	if k != nil {
		return k, nil
	}
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	e.mu.Lock()
	k = e.kernel
	e.mu.Unlock()
	if k != nil { // lost the race to another preparer
		return k, nil
	}
	k, info, err := s.engine.Prepare(e.m)
	if err != nil {
		return nil, fmt.Errorf("serve: %q: prepare: %w", e.name, err)
	}
	e.mu.Lock()
	dead := e.dead
	if !dead {
		e.kernel, e.bytes, e.info = k, info.Bytes, info
	}
	e.mu.Unlock()
	e.recordPrepare(info)
	if dead {
		// Raced a deregistration: serve the already-accepted batch with
		// the kernel, but do not keep its resources resident.
		s.engine.Release(e.m)
		return k, nil
	}
	s.admit(e, info.Bytes)
	return k, nil
}

// admit accounts a freshly prepared kernel against the memory budget
// and evicts the least-recently-used victims it displaces.
func (s *Server) admit(e *entry, bytes int64) {
	s.mu.Lock()
	victims := s.budget.Insert(e.name, bytes)
	ventries := make([]*entry, 0, len(victims))
	for _, name := range victims {
		if v := s.entries[name]; v != nil {
			ventries = append(ventries, v)
		}
	}
	s.mu.Unlock()
	for _, v := range ventries {
		s.evict(v)
	}
}

// touch refreshes the entry's LRU position after serving a batch.
func (s *Server) touch(e *entry) {
	s.mu.Lock()
	s.budget.Touch(e.name)
	s.mu.Unlock()
}

// evict drops a victim's kernel and releases its engine resources. The
// victim's dispatcher re-prepares on its next request — warm from the
// plan store, so eviction costs format conversion but never re-tuning.
func (s *Server) evict(v *entry) {
	v.mu.Lock()
	k := v.kernel
	v.kernel = nil
	v.bytes = 0
	v.mu.Unlock()
	if k == nil {
		return
	}
	s.engine.Release(v.m)
	v.sm.Lock()
	v.evictions++
	v.sm.Unlock()
}

// shutdownEntry marks the entry dead, fails everything still queued,
// and releases its kernel.
func (s *Server) shutdownEntry(e *entry) {
	s.mu.Lock()
	reason := ErrNotFound
	if s.closed {
		reason = ErrClosed
	}
	s.budget.Remove(e.name)
	s.mu.Unlock()

	e.mu.Lock()
	e.dead = true
	k := e.kernel
	e.kernel = nil
	e.bytes = 0
	e.mu.Unlock()

	err := fmt.Errorf("serve: %q: %w", e.name, reason)
	for {
		select {
		case r := <-e.ch:
			r.done <- err
		default:
			if k != nil {
				s.engine.Release(e.m)
			}
			return
		}
	}
}

// recordBatch accumulates one executed batch's counters.
func (e *entry) recordBatch(width int, secs float64, err error) {
	e.sm.Lock()
	defer e.sm.Unlock()
	if err != nil {
		e.errors += uint64(width)
		return
	}
	e.requests += uint64(width)
	e.batches++
	e.widthSum += uint64(width)
	e.busySeconds += secs
	e.flops += 2 * float64(e.m.NNZ()) * float64(width)
}

// recordFailure counts requests failed before execution.
func (e *entry) recordFailure(width int) {
	e.sm.Lock()
	e.errors += uint64(width)
	e.sm.Unlock()
}

// recordPrepare counts one kernel preparation.
func (e *entry) recordPrepare(info PrepInfo) {
	e.sm.Lock()
	if info.Warm {
		e.warmPreps++
	} else {
		e.tunes++
	}
	e.sm.Unlock()
}

// recordLatency pushes one request's submit-to-completion latency into
// the reservoir ring.
func (e *entry) recordLatency(secs float64) {
	e.sm.Lock()
	if len(e.lat) < latencySamples {
		e.lat = append(e.lat, secs)
	} else {
		e.lat[e.latPos] = secs
		e.latPos = (e.latPos + 1) % latencySamples
	}
	e.sm.Unlock()
}

// snapshot builds the exported stats view.
func (e *entry) snapshot() MatrixStats {
	e.sm.Lock()
	st := MatrixStats{
		Name:         e.name,
		Rows:         e.m.NRows,
		Cols:         e.m.NCols,
		NNZ:          e.m.NNZ(),
		Requests:     e.requests,
		Batches:      e.batches,
		Tunes:        e.tunes,
		WarmPrepares: e.warmPreps,
		Evictions:    e.evictions,
		Errors:       e.errors,
	}
	if e.batches > 0 {
		st.MeanBatchWidth = float64(e.widthSum) / float64(e.batches)
	}
	if e.busySeconds > 0 {
		st.AchievedGflops = e.flops / e.busySeconds / 1e9
	}
	lat := append([]float64(nil), e.lat...)
	e.sm.Unlock()
	st.P50LatencyMicros = stats.Percentile(lat, 50) * 1e6
	st.P99LatencyMicros = stats.Percentile(lat, 99) * 1e6

	e.mu.Lock()
	st.Resident = e.kernel != nil
	st.ResidentBytes = e.bytes
	st.Plan = e.info.Plan
	st.Gflops = e.info.Gflops
	st.Threads = e.info.Threads
	e.mu.Unlock()
	return st
}
