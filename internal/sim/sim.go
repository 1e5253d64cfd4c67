// Package sim implements the modeled executor: an analytic,
// roofline-with-latency cost model that evaluates SpMV configurations
// against the platform models of Table III. It is the substitution for
// the paper's KNC/KNL/Broadwell testbed (DESIGN.md, S1).
//
// The model computes, for every thread, the three resource times the
// paper's bound-and-bottleneck analysis reasons about:
//
//	compute   — cycles for flops, index handling and loop overhead,
//	            divided by SIMD throughput when vectorized;
//	bandwidth — bytes moved (matrix streams, y, and x cache-miss
//	            lines) over the thread's share of core bandwidth;
//	latency   — exposed miss latency of the irregular x accesses,
//	            limited by the core's memory-level parallelism, which
//	            software prefetching raises.
//
// A thread's time is the max of the three; the run's time is the
// slowest thread (imbalance!) floored by chip-level bandwidth
// saturation. Every mechanism the paper's four bottleneck classes (MB,
// ML, IMB, CMP) rely on emerges from these terms.
package sim

import (
	"sync"

	"github.com/sparsekit/spmvtuner/internal/cache"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/formats"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/sched"
)

// Costs collects the microarchitecture-independent model constants.
// They are exported so ablation benches can perturb them.
type Costs struct {
	// IndexCycles is the per-element column-index handling cost of the
	// scalar CSR loop; UnitStrideIndexCycles replaces it in the P_CMP
	// bound kernel, which has no indirect indexing.
	IndexCycles           float64
	UnitStrideIndexCycles float64
	// DeltaDecodeCycles is the per-element decompression overhead of
	// DeltaCSR.
	DeltaDecodeCycles float64
	// PrefetchIssueCycles is the per-element cost of the inserted
	// prefetch instruction — the reason blind prefetching *hurts*
	// regular matrices (Fig 1).
	PrefetchIssueCycles float64
	// Unroll improvements: fraction of scalar per-element cycles kept,
	// and fraction of per-row loop overhead kept.
	UnrollScalarFactor      float64
	UnrollRowOverheadFactor float64
	// VecOpOverheadFactor scales a vector operation's cost relative to
	// one scalar element (issue, masking); gathers add the machine's
	// GatherCyclesPerElem on top.
	VecOpOverheadFactor float64
	// UnitStrideStallFactor scales the machine's scalar stall cycles
	// in the P_CMP bound kernel, which has no indirect load chains.
	UnitStrideStallFactor float64
	// Y-vector bytes per row: scalar stores read-for-ownership (8 read
	// + 8 write); vectorized kernels use streaming stores.
	YBytesScalarPerRow float64
	YBytesVectorPerRow float64
	// RowPtrBytesPerRow is the row-pointer traffic.
	RowPtrBytesPerRow float64
	// SyncNsPerLongRow is the per-long-row reduction cost of the Fig 6
	// two-phase kernel.
	SyncNsPerLongRow float64
	// ChunkAtomicNs is the dequeue cost of one dynamic-schedule chunk.
	ChunkAtomicNs float64
	// LLCLatencyFraction scales miss latency when the working set is
	// cache resident; LLCPerCoreBWBoost scales the per-core bandwidth
	// cap in the same regime.
	LLCLatencyFraction float64
	LLCPerCoreBWBoost  float64
	// XCacheFraction is the share of a thread's cache capacity the
	// model assumes holds x-vector lines.
	XCacheFraction float64
	// DeltaBytesPerElem is the amortized column-index bytes per
	// element under DeltaCSR (CSR uses 4). The default assumes the
	// automatic width choice; the delta-width ablation overrides it
	// with measured ratios.
	DeltaBytesPerElem float64
}

// DefaultCosts returns the calibrated model constants.
func DefaultCosts() Costs {
	return Costs{
		IndexCycles:             1.0,
		UnitStrideIndexCycles:   0.25,
		DeltaDecodeCycles:       0.3,
		PrefetchIssueCycles:     0.8,
		UnrollScalarFactor:      0.85,
		UnrollRowOverheadFactor: 0.5,
		VecOpOverheadFactor:     1.2,
		UnitStrideStallFactor:   0.6,
		YBytesScalarPerRow:      16,
		YBytesVectorPerRow:      8,
		RowPtrBytesPerRow:       8,
		SyncNsPerLongRow:        200,
		ChunkAtomicNs:           80,
		LLCLatencyFraction:      1.0 / 6,
		LLCPerCoreBWBoost:       1.5,
		XCacheFraction:          0.5,
		DeltaBytesPerElem:       1.5,
	}
}

// Executor is the modeled platform. It memoizes per-matrix profiles
// (x-miss estimates, vector-op counts, split statistics), so repeated
// Run calls over the same matrix — the optimizer's normal pattern —
// cost O(N) rather than O(NNZ).
type Executor struct {
	model machine.Model
	costs Costs

	mu       sync.Mutex
	profiles map[*matrix.CSR]*profile
}

// New returns a modeled executor for the platform.
func New(m machine.Model) *Executor {
	return &Executor{model: m, costs: DefaultCosts(), profiles: make(map[*matrix.CSR]*profile)}
}

// NewWithCosts returns an executor with perturbed model constants
// (ablation support).
func NewWithCosts(m machine.Model, c Costs) *Executor {
	return &Executor{model: m, costs: c, profiles: make(map[*matrix.CSR]*profile)}
}

// Machine returns the platform model.
func (e *Executor) Machine() machine.Model { return e.model }

// Costs returns the active model constants.
func (e *Executor) Costs() Costs { return e.costs }

// profile caches the matrix-dependent inputs of the cost model.
type profile struct {
	// Prefix sums over rows (length N+1): x misses and vector ops.
	pMiss []int64
	pVec  []int64
	// uniqueXLines is the compulsory x traffic in lines.
	uniqueXLines int64
	// maxRowNNZ bounds the residual imbalance of dynamic schedules.
	maxRowNNZ int64

	// SELL-C-σ statistics at the default C/σ: the padded element
	// count the chunked kernel streams, and the chunk count whose
	// per-chunk setup replaces CSR's per-row overhead. Computed
	// lazily (sellStats) — the window sort costs O(N log σ) and most
	// modeled configurations never touch the format.
	sellOnce   sync.Once
	sellPadded int64
	sellChunks int

	// Symmetric-storage statistics: the structure-only strictly lower
	// triangle (the SSS conversion's row pointers, whose last entry is
	// the element count the kernel streams, each element applied
	// twice), and the conflict-window lengths of the kernel's reduction
	// per (schedule, thread count). Computed lazily (symStats,
	// symWindows) — the scan is O(NNZ) and only symmetric
	// configurations consult it.
	symOnce  sync.Once
	symLower *matrix.CSR
	symMu    sync.Mutex
	symWin   map[symKey][]int64

	// Whether every value fits float32 (formats.FitsF32). Computed
	// lazily (fitsF32) — the scan is O(NNZ) and only reduced-precision
	// configurations consult it.
	f32Once sync.Once
	f32Fits bool

	// Split decomposition statistics at the default threshold.
	splitThreshold int
	nLong          int
	longNNZ        int64
	longMiss       int64
	longVec        int64
	// Base-part prefix sums (long rows contribute zero).
	pNNZBase  []int64
	pMissBase []int64
	pVecBase  []int64
}

// xCacheLines returns the modeled per-thread x-cache capacity in lines.
func (e *Executor) xCacheLines() int {
	m := e.model
	perCore := float64(m.L1DBytes) + float64(m.L2Bytes)/float64(m.Cores)
	if m.L3Bytes > 0 {
		perCore += float64(m.L3Bytes) / float64(m.Cores)
	}
	perThread := perCore / float64(m.ThreadsPerCore) * e.costs.XCacheFraction
	lines := int(perThread) / m.CacheLineBytes
	if lines < 4 {
		lines = 4
	}
	return lines
}

// Forget drops the memoized profile of m so suite-scale sweeps can
// release finished matrices to the garbage collector.
func (e *Executor) Forget(m *matrix.CSR) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.profiles, m)
}

// profileOf computes or returns the memoized profile of m.
func (e *Executor) profileOf(m *matrix.CSR) *profile {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.profiles[m]; ok {
		return p
	}
	p := e.buildProfile(m)
	e.profiles[m] = p
	return p
}

func (e *Executor) buildProfile(m *matrix.CSR) *profile {
	lanes := int64(e.model.SIMDLanes)
	miss := cache.EstimateXMisses(m, e.model.LineElems(), e.xCacheLines())
	n := m.NRows
	p := &profile{
		pMiss:        make([]int64, n+1),
		pVec:         make([]int64, n+1),
		uniqueXLines: miss.UniqueLines,
	}
	for i := 0; i < n; i++ {
		nnz := m.RowPtr[i+1] - m.RowPtr[i]
		if nnz > p.maxRowNNZ {
			p.maxRowNNZ = nnz
		}
		p.pMiss[i+1] = p.pMiss[i] + int64(miss.PerRow[i])
		p.pVec[i+1] = p.pVec[i] + (nnz+lanes-1)/lanes
	}
	// Split statistics at the default threshold.
	p.splitThreshold = SplitThreshold(m)
	th := int64(p.splitThreshold)
	p.pNNZBase = make([]int64, n+1)
	p.pMissBase = make([]int64, n+1)
	p.pVecBase = make([]int64, n+1)
	for i := 0; i < n; i++ {
		nnz := m.RowPtr[i+1] - m.RowPtr[i]
		rowMiss := int64(miss.PerRow[i])
		rowVec := (nnz + lanes - 1) / lanes
		if nnz > th {
			p.nLong++
			p.longNNZ += nnz
			p.longMiss += rowMiss
			p.longVec += rowVec
			nnz, rowMiss, rowVec = 0, 0, 0
		}
		p.pNNZBase[i+1] = p.pNNZBase[i] + nnz
		p.pMissBase[i+1] = p.pMissBase[i] + rowMiss
		p.pVecBase[i+1] = p.pVecBase[i] + rowVec
	}
	return p
}

// SplitThreshold is the row length above which the long-row
// decomposition (Fig 5) extracts a row. It mirrors the paper's
// detection heuristic: a row is long when it dwarfs the average row
// length (the classifier compares nnzmax against nnzavg), here 16x
// the average; the floor of 256 keeps small matrices from splitting on
// noise.
func SplitThreshold(m *matrix.CSR) int {
	avg := float64(m.NNZ()) / float64(maxInt(1, m.NRows))
	return max(int(16*avg), 256)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// sellStats returns the memoized SELL-C-σ statistics of m, computing
// them on first use.
func (p *profile) sellStats(m *matrix.CSR) (paddedNNZ int64, nChunks int) {
	p.sellOnce.Do(func() {
		p.sellPadded, p.sellChunks = formats.SellCSStats(m,
			formats.DefaultChunkHeight, formats.DefaultSortWindow(m.NRows))
	})
	return p.sellPadded, p.sellChunks
}

// fitsF32 returns the memoized formats.FitsF32 verdict on m's values.
func (p *profile) fitsF32(m *matrix.CSR) bool {
	p.f32Once.Do(func() { p.f32Fits = formats.FitsF32(m.Val) })
	return p.f32Fits
}

// symStats returns the memoized strictly lower triangle of m as a
// structure-only CSR: dimensions and row pointers, the prefix the
// native SSS binding partitions.
func (p *profile) symStats(m *matrix.CSR) *matrix.CSR {
	p.symOnce.Do(func() {
		n := m.NRows
		ptr := make([]int64, n+1)
		for i := 0; i < n; i++ {
			ptr[i+1] = ptr[i]
			for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
				if int(m.ColInd[j]) < i {
					ptr[i+1]++
				}
			}
		}
		p.symLower = &matrix.CSR{NRows: n, NCols: n, RowPtr: ptr}
	})
	return p.symLower
}

// symKey identifies one SSS partition: the schedule and thread count.
type symKey struct {
	policy sched.Policy
	nt     int
}

// symWindows returns the memoized per-slot conflict-window lengths
// (formats.SymWindows) of the SSS kernel over nt threads: the same
// static partition of the lower triangle the native binding runs under
// every schedule, so the model prices the cells the kernel folds.
func (p *profile) symWindows(m *matrix.CSR, policy sched.Policy, nt int) []int64 {
	lower := p.symStats(m)
	p.symMu.Lock()
	defer p.symMu.Unlock()
	key := symKey{policy, nt}
	if w, ok := p.symWin[key]; ok {
		return w
	}
	win := formats.SymWindows(m, sched.PartitionFor(policy, lower, nt))
	w := make([]int64, nt)
	for t, r := range win {
		w[t] = int64(r.Rows())
	}
	if p.symWin == nil {
		p.symWin = make(map[symKey][]int64)
	}
	p.symWin[key] = w
	return w
}

// Bytes the SSS reduction moves per conflict-window cell: the owning
// thread zeroes the cell and accumulates into it, and the serial fold
// reads it and updates its y cell.
const (
	symWindowBytesPerCell = 16
	symFoldBytesPerCell   = 24
)

// threadLoad is the per-thread resource consumption of one SpMV.
type threadLoad struct {
	rows int64
	nnz  int64
	miss int64
	vec  int64
}

// Run evaluates the configuration against the cost model.
func (e *Executor) Run(cfg ex.Config) ex.Result {
	m := cfg.Matrix
	mdl := e.model
	costs := e.costs
	nt := cfg.Threads
	if nt <= 0 {
		nt = mdl.Threads()
	}
	p := e.profileOf(m)
	// Price what runs on this platform: on the host model, knob sets
	// that bind one kernel resolve to one canonical form (the identity
	// on the paper's platforms, whose kernels the knobs do select). A
	// bound probe runs over the baseline CSR and ignores cfg.Opt.
	o := cfg.Opt.Canonical(mdl)
	if cfg.Probe != 0 {
		o = ex.Optim{}
	}
	unitStride := cfg.Probe == ex.ProbeCMP
	format := o.Format
	sellActive := format == ex.FormatSellCS
	compressActive := format == ex.FormatDelta
	// Symmetric storage models only matrices that actually carry the
	// kind; on anything else the knob is inert (the native engine
	// rejects the conversion outright).
	sssActive := format == ex.FormatSSS && m.Sym == matrix.SymSymmetric
	// The SELL chunk kernel has no prefetch or unroll variants (its
	// column-major traversal is the vectorized form); model both knobs
	// as inert there, exactly as the native engine treats them. The
	// scalar SSS kernel has no vector/prefetch/unroll variants either.
	prefetchActive := o.Prefetch && !sellActive && !sssActive
	unrollActive := o.Unroll && !sellActive && !sssActive
	vectorizeActive := o.Vectorize && !sssActive

	// Threads per core actually running.
	k := (nt + mdl.Cores - 1) / mdl.Cores
	if k < 1 {
		k = 1
	}

	// Working-set residency decides the bandwidth/latency regime (the
	// paper's footnote 2 and the CMP discussion of Section III-C).
	ws := m.Bytes() + int64(m.NCols+m.NRows)*8
	fits := ws <= mdl.LLCBytes()
	bmax := mdl.PeakBandwidth(ws)
	missLatNs := mdl.MissLatencyNs
	perCoreBW := mdl.PerCoreGBs * 1e9
	if fits {
		missLatNs *= costs.LLCLatencyFraction
		perCoreBW *= costs.LLCPerCoreBWBoost
	}

	// Assemble per-thread loads.
	policy := sched.Resolve(o.Schedule, m, nt)
	loads, dynamicChunks := e.assignLoads(m, p, o, policy, nt)

	// Per-element and per-row cost constants for this configuration.
	//
	// Scalar path: flops + index handling + the machine's pipeline
	// stalls on streaming loads (dominant on KNC's in-order cores).
	// The P_CMP probe drops the indirect load chain, shrinking both
	// index cost and stalls.
	scalarCyc := 2/mdl.ScalarFlopsPerCycle + costs.IndexCycles + mdl.ScalarStallCycles
	if unitStride {
		scalarCyc = 2/mdl.ScalarFlopsPerCycle + costs.UnitStrideIndexCycles +
			mdl.ScalarStallCycles*costs.UnitStrideStallFactor
	}
	if compressActive {
		scalarCyc += costs.DeltaDecodeCycles
	}
	if prefetchActive {
		scalarCyc += costs.PrefetchIssueCycles
	}
	rowOv := mdl.RowOverheadCycles
	if unrollActive {
		// Unrolling overlaps independent iterations: it trims both the
		// per-element cycles (ILP across accumulators) and the loop
		// bookkeeping.
		scalarCyc *= costs.UnrollScalarFactor
		rowOv *= costs.UnrollRowOverheadFactor
	}
	// Vector path: one vector op per ceil(nnz_i/lanes); stalls are
	// amortized by SIMD but gathers of x cost per element, and every
	// row pays mask/remainder setup — the short-row penalty.
	vecCyc := (2/mdl.ScalarFlopsPerCycle+costs.IndexCycles)*costs.VecOpOverheadFactor +
		mdl.GatherCyclesPerElem*float64(mdl.SIMDLanes)
	if unitStride {
		// Unit-stride vector loads need no gather.
		vecCyc = (2/mdl.ScalarFlopsPerCycle + costs.UnitStrideIndexCycles) * costs.VecOpOverheadFactor
	}
	if compressActive {
		vecCyc += costs.DeltaDecodeCycles * float64(mdl.SIMDLanes) * 0.5
	}
	if prefetchActive {
		vecCyc += costs.PrefetchIssueCycles
	}
	vecRowOv := rowOv + mdl.VecRowSetupCycles
	if sellActive {
		// SELL-C-σ pays setup per chunk, not per row; that cost is
		// folded into the vector-op count by assignLoads, so the
		// per-row loop and mask/remainder overheads vanish — the
		// format's whole point for short-row matrices.
		rowOv, vecRowOv = 0, 0
	}

	// Matrix stream bytes per element and per row.
	valBytes := 8.0
	idxBytes := 4.0
	rowBytes := costs.RowPtrBytesPerRow
	// Symmetric storage streams only the strictly-lower elements (each
	// applied twice), so the per-element value/index bytes shrink by
	// the lower/full ratio (≈ 1/2); the dense diagonal adds 8 bytes
	// per row on top of the row pointers. The reduction costs each
	// thread its conflict window (below) and the dispatching thread
	// the serial fold of all windows after the barrier.
	var symWin []int64
	if sssActive && m.NNZ() > 0 {
		lower := p.symStats(m)
		lowerFrac := float64(lower.RowPtr[lower.NRows]) / float64(m.NNZ())
		valBytes *= lowerFrac
		idxBytes *= lowerFrac
		rowBytes += 8
		symWin = p.symWindows(m, o.Schedule, nt)
	}
	if sellActive {
		// SELL-C-σ streams the padded value/index arrays (the per-
		// element nnz of the SELL loads is already padded); the chunk
		// metadata — one pointer and one width — is amortized over C
		// rows, replacing the per-row row-pointer traffic.
		rowBytes = 12.0 / float64(formats.DefaultChunkHeight)
	} else if compressActive {
		// DeltaCSR: 1- or 2-byte deltas + 4-byte first column per row;
		// DeltaBytesPerElem carries the amortized escape overhead.
		idxBytes = costs.DeltaBytesPerElem
		rowBytes += 4
	}
	// Precision-reduced value storage: the value stream halves (4-byte
	// stored values). The model follows the engine's gating exactly
	// (EffectivePrecision: CSR, SELL-C-σ and SSS only, and only when
	// every value fits float32, else the f64 binding runs), so an
	// inert precision knob is never priced — and a compute-bound
	// matrix sees its compute terms unchanged, which is why the oracle
	// only gains from the knob when bandwidth is what binds.
	if o.EffectivePrecision() != ex.PrecF64 && (format != ex.FormatSSS || sssActive) && p.fitsF32(m) {
		valBytes *= 0.5
	}
	if unitStride {
		idxBytes = 0 // the P_CMP kernel loads no column indices
	}
	yBytes := costs.YBytesScalarPerRow
	if vectorizeActive {
		yBytes = costs.YBytesVectorPerRow
	}
	if sellActive {
		// The permuted scatter is a per-row scalar store plus the
		// permutation-table read.
		yBytes = costs.YBytesScalarPerRow + 4
	}

	lineBytes := float64(mdl.CacheLineBytes)
	cps := mdl.CyclesPerSecond()
	mlp := mdl.MLP
	if prefetchActive {
		mlp = mdl.PrefetchMLP
	}
	regular := cfg.Probe != 0

	threadSecs := make([]float64, nt)
	var totalBytes float64
	var crit ex.Breakdown
	var worst float64
	for t := range loads {
		ld := loads[t]
		// Compute term.
		var compCyc float64
		if vectorizeActive {
			compCyc = float64(ld.vec)*vecCyc + float64(ld.rows)*vecRowOv
		} else {
			compCyc = float64(ld.nnz)*scalarCyc + float64(ld.rows)*rowOv
		}
		tComp := compCyc * float64(k) / cps

		// Bandwidth term.
		var xBytes float64
		if regular {
			// x[i] streaming: one line per lineElems rows.
			xBytes = float64(ld.rows) * 8
		} else {
			xBytes = float64(ld.miss) * lineBytes
		}
		bytes := float64(ld.nnz)*(valBytes+idxBytes) +
			float64(ld.rows)*(rowBytes+yBytes) + xBytes
		if symWin != nil {
			// A banded matrix's window is one bandwidth of rows; a wide
			// profile's reaches back toward row 0.
			bytes += symWindowBytesPerCell * float64(symWin[t])
		}
		tBW := bytes / (perCoreBW / float64(k))

		// Latency term: only irregular x misses expose latency;
		// streams are covered by hardware prefetch.
		var tLat float64
		if regular {
			seqMiss := float64(ld.rows) / float64(mdl.LineElems())
			tLat = seqMiss * (1 - mdl.HWPrefetchEff) * missLatNs * 1e-9 * float64(k) / mlp
		} else {
			tLat = float64(ld.miss) * missLatNs * 1e-9 * float64(k) / mlp
		}

		tt := maxf3(tComp, tBW, tLat)
		// Dynamic scheduling pays a dequeue per chunk.
		if dynamicChunks > 0 {
			tt += float64(dynamicChunks) / float64(nt) * costs.ChunkAtomicNs * 1e-9
		}
		// The split kernel's step 2 reduction synchronizes per long row.
		if format == ex.FormatSplit && p.nLong > 0 {
			tt += float64(p.nLong) * costs.SyncNsPerLongRow * 1e-9
		}
		threadSecs[t] = tt
		totalBytes += bytes
		if tt > worst {
			worst = tt
			crit = ex.Breakdown{ComputeSeconds: tComp, BandwidthSeconds: tBW, LatencySeconds: tLat}
		}
	}

	// Chip-level bandwidth saturation floor. Under saturation every
	// thread stretches with the contention, so per-thread times scale
	// proportionally — otherwise the P_IMB bound (median thread time)
	// would report phantom imbalance on perfectly balanced matrices.
	globalBW := totalBytes / bmax
	crit.GlobalBWSeconds = globalBW
	secs := worst
	if globalBW > secs && secs > 0 {
		scale := globalBW / secs
		for i := range threadSecs {
			threadSecs[i] *= scale
		}
		secs = globalBW
	}
	// The SSS fold runs serially on the dispatching thread after the
	// barrier: every window cell read and its y cell read and written
	// back, at one core's bandwidth. It is what makes SSS lose on a
	// wide-profile matrix, whose windows approach nt·n/2 cells.
	if symWin != nil {
		var cells int64
		for _, w := range symWin {
			cells += w
		}
		foldBytes := symFoldBytesPerCell * float64(cells)
		totalBytes += foldBytes
		secs += foldBytes / perCoreBW
	}

	return ex.Result{
		Seconds:       secs,
		ThreadSeconds: threadSecs,
		Gflops:        ex.GflopsOf(m, secs),
		MemBytes:      totalBytes,
		Breakdown:     crit,
	}
}

func maxf3(a, b, c float64) float64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

// assignLoads distributes the matrix across threads under the given
// policy and optimizations, returning per-thread loads and — for
// chunked schedules — the number of chunks served (0 for static).
func (e *Executor) assignLoads(m *matrix.CSR, p *profile, o ex.Optim, policy sched.Policy, nt int) ([]threadLoad, int) {
	loads := make([]threadLoad, nt)

	// SELL-C-σ: window sorting plus chunking equalizes per-thread work
	// by construction (the chunk-balanced static partition the engine
	// uses), so every thread gets an even share of the padded element
	// stream, the x misses, and the chunk setup overhead — which
	// replaces CSR's per-row vector setup, the short-row penalty.
	if o.Format == ex.FormatSellCS {
		padded, chunks := p.sellStats(m)
		lanes := int64(e.model.SIMDLanes)
		vecTotal := (padded+lanes-1)/lanes + int64(chunks)
		n64 := int64(nt)
		for t := range loads {
			loads[t] = threadLoad{
				rows: int64(m.NRows) / n64,
				nnz:  padded / n64,
				miss: p.pMiss[m.NRows] / n64,
				vec:  vecTotal / n64,
			}
		}
		// Dynamic and guided schedules serve SELL chunk ranges from
		// the shared cursor (the native SELL-C-σ binding), paying the
		// same dequeue cost as the row path.
		served := 0
		switch policy {
		case sched.Dynamic, sched.Guided:
			unit := sched.DefaultChunk(chunks, nt)
			served = (chunks + unit - 1) / unit
			if policy == sched.Guided {
				served = served/2 + nt
			}
		}
		return loads, served
	}

	// Select the prefix arrays: split configurations work on the base
	// part and spread the long part evenly afterwards.
	splitActive := o.Format == ex.FormatSplit
	pNNZ := m.RowPtr
	pMiss, pVec := p.pMiss, p.pVec
	if splitActive {
		pNNZ, pMiss, pVec = p.pNNZBase, p.pMissBase, p.pVecBase
	}
	n := m.NRows
	total := threadLoad{
		rows: int64(n),
		nnz:  pNNZ[n],
		miss: pMiss[n],
		vec:  pVec[n],
	}

	chunks := 0
	switch policy {
	case sched.Dynamic, sched.Guided:
		// Dynamic schedules equalize everything up to the residual of
		// the largest indivisible unit (a single row): model as an
		// even share plus the residual on one thread.
		chunkRows := sched.DefaultChunk(n, nt)
		chunks = (n + chunkRows - 1) / chunkRows
		if policy == sched.Guided {
			chunks = chunks/2 + nt // geometric chunks: far fewer dequeues
		}
		for t := range loads {
			loads[t] = threadLoad{
				rows: total.rows / int64(nt),
				nnz:  total.nnz / int64(nt),
				miss: total.miss / int64(nt),
				vec:  total.vec / int64(nt),
			}
		}
		// Residual imbalance: the largest row (minus its fair share)
		// lands on thread 0. Split configurations removed long rows
		// from the base, so their residual uses the threshold.
		maxRow := p.maxRowNNZ
		if splitActive && maxRow > int64(p.splitThreshold) {
			maxRow = int64(p.splitThreshold)
		}
		residual := maxRow - total.nnz/int64(nt)
		if residual > 0 {
			loads[0].nnz += residual
			loads[0].vec += residual / int64(e.model.SIMDLanes)
		}
	case sched.StaticRows:
		for t, r := range sched.PartitionRows(n, nt) {
			loads[t] = threadLoad{
				rows: int64(r.Hi - r.Lo),
				nnz:  pNNZ[r.Hi] - pNNZ[r.Lo],
				miss: pMiss[r.Hi] - pMiss[r.Lo],
				vec:  pVec[r.Hi] - pVec[r.Lo],
			}
		}
	default: // StaticNNZ (the baseline) and resolved Auto.
		for t, r := range sched.PartitionPrefix(pNNZ, n, nt) {
			loads[t] = threadLoad{
				rows: int64(r.Hi - r.Lo),
				nnz:  pNNZ[r.Hi] - pNNZ[r.Lo],
				miss: pMiss[r.Hi] - pMiss[r.Lo],
				vec:  pVec[r.Hi] - pVec[r.Lo],
			}
		}
	}

	// Phase 2 of the split kernel: long rows spread over all threads.
	if splitActive && p.longNNZ > 0 {
		share := p.longNNZ / int64(nt)
		missShare := p.longMiss / int64(nt)
		vecShare := p.longVec / int64(nt)
		for t := range loads {
			loads[t].nnz += share
			loads[t].miss += missShare
			loads[t].vec += vecShare
		}
	}
	return loads, chunks
}

// UniqueXLines exposes the compulsory x-line count of m under this
// platform's line size (used by the bounds package for M_xy,min).
func (e *Executor) UniqueXLines(m *matrix.CSR) int64 {
	return e.profileOf(m).uniqueXLines
}
