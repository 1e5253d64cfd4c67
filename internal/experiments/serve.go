package experiments

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/sparsekit/spmvtuner/internal/core"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/plan"
	"github.com/sparsekit/spmvtuner/internal/planstore"
	"github.com/sparsekit/spmvtuner/internal/report"
	"github.com/sparsekit/spmvtuner/internal/sched"
	"github.com/sparsekit/spmvtuner/internal/serve"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// ServeMode summarizes one serving configuration under the closed-loop
// client load.
type ServeMode struct {
	Mode           string
	Plan           string // the served plan, e.g. "vec@static-nnz"
	MaxBatch       int
	Requests       uint64
	Batches        uint64
	MeanBatchWidth float64
	ElapsedMs      float64
	ReqPerSec      float64
	P50Micros      float64
	P99Micros      float64
	Gflops         float64
}

// ServeResult compares coalesced against sequential serving for the
// same client population on one matrix, over serveRounds rounds of one
// run per mode. RoundSpeedups holds each round's requests/sec ratio;
// Speedup is their median, and Sequential and Coalesced are the runs
// of the round that read it. MaxDiff is the worst relative deviation of
// any served vector from the serial CSR reference across every run.
type ServeResult struct {
	Matrix        string
	NNZ           int
	Clients       int
	PerClient     int
	GOMAXPROCS    int
	Sequential    ServeMode
	Coalesced     ServeMode
	Speedup       float64
	RoundSpeedups []float64
	MaxDiff       float64
}

// serveRounds is how many sequential/coalesced pairs Serve times: one
// pair runs in under half a second at the CI scale, and one slow run
// can drag its ratio from 2x to 1x, which the median of five cannot.
const serveRounds = 5

// serveDefaultMatrix is the bandwidth-bound banded reference
// (FEM_3D_thermal2's recipe): the regime where a CSR float64 plan's
// register-blocked groups cut per-vector matrix traffic the most.
const serveDefaultMatrix = "FEM_3D_thermal2"

// Serve measures what request coalescing buys a loaded multi-tenant
// server: the same 16 closed-loop clients drive a sequential server
// (MaxBatch 1, every request a single-vector call) and a coalescing
// one (MaxBatch 8, concurrent requests share one MulVecBatch call, and
// one matrix stream per group of 8 or 4 on a CSR float64 plan). Both
// servers run over one shared native pipeline whose plan store is
// seeded with that plan, vec@static-nnz, so neither tunes and both
// serve the blocked binding. Every returned vector is checked against
// the serial reference — a wrong answer is an error. Whether coalescing is
// a slowdown is a wall-clock verdict, so Serve leaves it to its caller:
// `spmvbench -exp serve` fails on it, which lets CI run this
// experiment as the serving smoke while unit tests stay deterministic.
func Serve(cfg Config) (*ServeResult, error) {
	c := cfg.withDefaults()
	name := serveDefaultMatrix
	if len(c.Matrices) == 1 {
		name = c.Matrices[0]
	} else if len(c.Matrices) > 1 {
		return nil, fmt.Errorf("serve: pick one matrix, got %d", len(c.Matrices))
	}
	m := suite.ByName(name, c.Scale)
	if m == nil {
		return nil, fmt.Errorf("serve: %q is not a suite matrix", name)
	}

	nat := native.New()
	defer nat.Close()
	pipe := core.New(nat)
	pipe.Store = planstore.New(planstore.DefaultCapacity)
	// Both servers warm-start from one CSR float64 plan, the binding
	// that streams the matrix once per coalesced group. A live Tune
	// may draw a SELL-C-σ plan instead, which runs a batch vector by
	// vector, and the speedup would then measure the plan choice
	// rather than coalescing.
	fp := matrix.Fingerprint(m)
	seed := plan.Plan{
		Version: plan.CurrentVersion, Fingerprint: fp, Machine: nat.Machine().Codename,
		Optimizer: "serve-seed", Opt: ex.Optim{Vectorize: true, Schedule: sched.StaticNNZ},
		KernelISA: kernels.ISA(), Library: plan.Library,
	}
	key := planstore.Key{Fingerprint: fp, Machine: seed.Machine, Version: plan.CurrentVersion}
	if err := pipe.Store.Put(key, seed); err != nil {
		return nil, fmt.Errorf("serve: seed plan: %w", err)
	}
	eng := serve.NewPipelineEngine(pipe)

	res := &ServeResult{
		Matrix:     m.Name,
		NNZ:        m.NNZ(),
		Clients:    16,
		PerClient:  50,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	modes := [2]struct {
		tag      string
		maxBatch int
	}{{"sequential", 1}, {"coalesced", serve.DefaultMaxBatch}}
	rounds := make([][2]ServeMode, serveRounds)
	for r := range rounds {
		for i := range modes {
			k := i ^ r&1 // odd rounds run the coalesced mode first
			row, maxDiff, err := serveLoad(eng, m, modes[k].maxBatch, res.Clients, res.PerClient)
			if err != nil {
				return nil, fmt.Errorf("serve: %s: %w", modes[k].tag, err)
			}
			row.Mode = modes[k].tag
			rounds[r][k], res.MaxDiff = row, max(res.MaxDiff, maxDiff)
		}
		// serveLoad served every request, so both rates are positive.
		res.RoundSpeedups = append(res.RoundSpeedups, rounds[r][1].ReqPerSec/rounds[r][0].ReqPerSec)
	}
	sorted := slices.Sorted(slices.Values(res.RoundSpeedups))
	mid := slices.Index(res.RoundSpeedups, sorted[serveRounds/2])
	res.Sequential, res.Coalesced, res.Speedup = rounds[mid][0], rounds[mid][1], res.RoundSpeedups[mid]

	if res.MaxDiff > 1e-12 {
		return nil, fmt.Errorf("serve: served vectors deviate from the serial reference by %g (tol 1e-12)", res.MaxDiff)
	}
	return res, nil
}

// serveLoad runs the closed-loop client population against a fresh
// server and snapshots its counters. Each client submits a fixed
// deterministic vector, so the reference is computed once per client
// outside the timed region and every response is verified.
func serveLoad(eng serve.Engine, cm *matrix.CSR, maxBatch, clients, perClient int) (ServeMode, float64, error) {
	srv := serve.New(eng, serve.Config{MaxBatch: maxBatch})
	defer srv.Close()
	if err := srv.Register("m", cm); err != nil {
		return ServeMode{}, 0, err
	}
	// Warm outside the timed region: both modes start with a resident
	// kernel, so the comparison isolates dispatch, not tuning.
	if err := srv.Warm("m"); err != nil {
		return ServeMode{}, 0, err
	}

	type client struct {
		x, y, ref []float64
	}
	cs := make([]client, clients)
	for i := range cs {
		cs[i].x = make([]float64, cm.NCols)
		for j := range cs[i].x {
			cs[i].x[j] = 1 + 0.125*float64((j+3*i)%11)
		}
		cs[i].y = make([]float64, cm.NRows)
		cs[i].ref = make([]float64, cm.NRows)
		cm.MulVec(cs[i].x, cs[i].ref)
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
	)
	start := time.Now()
	for i := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for it := 0; it < perClient; it++ {
				if err := srv.MulVec("m", c.x, c.y); err != nil {
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
					return
				}
			}
		}(&cs[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstEr != nil {
		return ServeMode{}, 0, firstEr
	}
	// Verify outside the timed region: each client's vector is fixed,
	// so its final y is the answer every one of its requests received
	// (an O(n) scan per request inside the closed loop would serialize
	// the clients on small hosts and mask the coalescing effect — the
	// per-request differential guarantee lives in the serve test
	// suite's coalescing sweep, not here).
	var maxDiff float64
	for i := range cs {
		for j := range cs[i].ref {
			d := math.Abs(cs[i].y[j]-cs[i].ref[j]) / math.Max(1, math.Abs(cs[i].ref[j]))
			if d > maxDiff {
				maxDiff = d
			}
		}
	}

	st, ok := srv.StatsFor("m")
	if !ok {
		return ServeMode{}, maxDiff, fmt.Errorf("stats vanished")
	}
	row := ServeMode{
		Plan:           st.Plan,
		MaxBatch:       maxBatch,
		Requests:       st.Requests,
		Batches:        st.Batches,
		MeanBatchWidth: st.MeanBatchWidth,
		ElapsedMs:      elapsed.Seconds() * 1e3,
		ReqPerSec:      float64(st.Requests) / elapsed.Seconds(),
		P50Micros:      st.P50LatencyMicros,
		P99Micros:      st.P99LatencyMicros,
		Gflops:         st.AchievedGflops,
	}
	if want := uint64(clients * perClient); st.Requests != want {
		return row, maxDiff, fmt.Errorf("served %d requests, want %d", st.Requests, want)
	}
	return row, maxDiff, nil
}

// Table renders the comparison.
func (r *ServeResult) Table() *report.Table {
	t := report.New(fmt.Sprintf("Multi-tenant serving: coalesced vs sequential (%s, nnz %d, %d clients x %d reqs, GOMAXPROCS %d)",
		r.Matrix, r.NNZ, r.Clients, r.PerClient, r.GOMAXPROCS),
		"mode", "plan", "max batch", "req/s", "mean width", "batches", "p50 us", "p99 us", "Gflops")
	for _, row := range []ServeMode{r.Sequential, r.Coalesced} {
		t.Add(row.Mode, row.Plan, fmt.Sprintf("%d", row.MaxBatch), report.F(row.ReqPerSec),
			report.F(row.MeanBatchWidth), fmt.Sprintf("%d", row.Batches),
			report.F(row.P50Micros), report.F(row.P99Micros), report.F(row.Gflops))
	}
	t.AddNote("coalescing speedup %.2fx in requests/sec, the median round's (rows above) of rounds %.2f alternating which mode runs first; max deviation from serial reference %.1e",
		r.Speedup, r.RoundSpeedups, r.MaxDiff)
	t.AddNote("every run serves the plan seeded in the store, %s; a live tune could draw a plan that runs a batch vector by vector", r.Coalesced.Plan)
	t.AddNote("coalesced batches run as one MulVecBatch of up to %d requests; only a CSR float64 plan streams the matrix once per group of 8 or 4", r.Coalesced.MaxBatch)
	return t
}
