package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"github.com/sparsekit/spmvtuner/internal/core"
	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/planstore"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it, or -1.
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartUs: us(time.Since(t.t0))})
	return len(t.spans) - 1
}

// stop closes span id and returns its duration in seconds.
func (t *tracer) stop(id int) float64 {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.DurUs = us(time.Since(t.t0)) - s.StartUs
	return s.DurUs / 1e6
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// children sums, in seconds, the durations of the direct children of
// span id that are named name.
func (t *tracer) children(id int, name string) float64 {
	var s float64
	for _, sp := range t.spans[id+1:] {
		if sp.Parent == id && sp.Name == name {
			s += sp.DurUs
		}
	}
	return s / 1e6
}

// overheadFrac is the cost of recording the run's spans as a share of
// the traced wall time: the per-span cost is measured here, on a
// scratch tracer, and multiplied by the span count.
func (t *tracer) overheadFrac() float64 {
	const n = 20000
	probe := newTracer()
	probe.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		probe.stop(probe.start("probe", -1))
	}
	perSpan := time.Since(start).Seconds() / n
	wall := time.Since(t.t0).Seconds()
	return perSpan * float64(len(t.spans)) / wall
}

func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// shimExec wraps the native executor the pipeline measures and prepares
// with. Every Run (one profiling or commit measurement) and every
// Prepare (format conversion and partitioning) is counted and recorded
// as a span under parent.
type shimExec struct {
	*native.Executor
	tr     *tracer
	parent int
	runs   int
}

func (s *shimExec) Run(cfg ex.Config) ex.Result {
	id := s.tr.start("opt.run", s.parent)
	defer s.tr.stop(id)
	s.runs++
	return s.Executor.Run(cfg)
}

func (s *shimExec) Prepare(m *matrix.CSR, o ex.Optim) ex.PreparedKernel {
	id := s.tr.start("native.prepare", s.parent)
	defer s.tr.stop(id)
	return s.Executor.Prepare(m, o)
}

// warmStart is one traced warm start: every matrix prepared through
// core.Pipeline.Prepare from a seeded plan store.
type warmStart struct {
	kernels      []*native.Prepared
	bytes        []int64 // per multiply: the prepared format plus x and y
	open, prep   float64 // seconds in planstore.Open and in native prepares
	hits, misses int
	runs         int // executor Run measurements, 0 on the warm path
	threads      int
	close        func()
}

// tracedWarmStart is the facade's warm path with each layer call
// recorded: it opens the plan store in dir and prepares every matrix
// through core.Pipeline.Prepare on a counting shim over a fresh native
// executor. A cold tune or any executor Run is a failed operation.
// close releases the store and the executor once the kernels are done.
func tracedWarmStart(rc *runCtx, out *outcome, dir string, csrs []*matrix.CSR) (*warmStart, error) {
	tr := rc.tr
	id := tr.start("planstore.open", -1)
	store, err := planstore.Open(dir, planstore.DefaultCapacity)
	open := tr.stop(id)
	if err != nil {
		return nil, err
	}
	nat := native.NewWithModel(machine.Host())
	sh := &shimExec{Executor: nat, tr: tr}
	w := &warmStart{open: open, close: func() {
		_ = store.Close() // the store was only read
		_ = nat.Close()   // always nil
	}}
	p := core.New(sh)
	p.Store = store
	for i, m := range csrs {
		root := tr.start("tune", -1)
		sh.parent = root
		runs0 := sh.runs
		m.SymmetryKind()
		_, k, warm := p.Prepare(m)
		tr.stop(root)
		w.prep += tr.children(root, "native.prepare")
		out.attempted++
		if warm {
			w.hits++
		} else {
			w.misses++
		}
		if !warm || sh.runs > runs0 {
			out.fail(rc, "%s: cold tune (%d executor runs); the seeded plan was not used", rc.matrices[i].name, sh.runs-runs0)
		}
		pk := k.(*native.Prepared)
		w.kernels = append(w.kernels, pk)
		w.bytes = append(w.bytes, pk.MemBytes()+8*int64(m.NRows+m.NCols))
		w.threads = max(w.threads, pk.Threads())
	}
	w.runs = sh.runs
	return w, nil
}

// median returns the median of v (0 for none); v is not modified.
func median(v []float64) float64 { return percentile(v, 50) }

// percentile returns the p-th percentile of v by linear interpolation
// between closest ranks (0 for none); v is not modified.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(v []float64) float64 { return sum(v) / float64(len(v)) }

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// geomean returns the geometric mean of the positive values in v.
func geomean(v []float64) float64 {
	var s float64
	n := 0
	for _, x := range v {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// relErr is the normwise relative difference max|got-ref| / max|ref|.
func relErr(got, ref []float64) float64 {
	if len(got) != len(ref) {
		return math.Inf(1)
	}
	var d, r float64
	for i := range ref {
		e := math.Abs(got[i] - ref[i])
		if math.IsNaN(e) {
			return math.Inf(1)
		}
		d, r = max(d, e), max(r, math.Abs(ref[i]))
	}
	if r == 0 {
		return d
	}
	return d / r
}

// tolSpMV is the relative error a tuned multiply may show against the
// serial CSR reference.
const tolSpMV = 1e-12
