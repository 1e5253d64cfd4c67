package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	spmv "github.com/sparsekit/spmvtuner"
	"github.com/sparsekit/spmvtuner/internal/matrix"
	"github.com/sparsekit/spmvtuner/internal/mmio"
)

const (
	conns         = 2 // closed-loop client connections
	vecsPerMat    = 4 // distinct seeded x vectors per matrix
	setupReps     = 3 // registrations timed per run
	keepPerConn   = 8 // responses kept per connection for decoding
	keepOneIn     = 32
	warmupPerConn = 8
)

// runServeHTTP drives cmd/spmvserve over loopback HTTP: the only workload
// that exercises JSON decode and encode, the request queue and
// coalescing, and the only one whose setup parses Matrix Market files.
// The server starts with -plans on a store seeded with model-decided
// plans; the matrices are registered from .mtx files with "warm":true,
// three times (deregistering in between). Two closed-loop connections
// then POST /v1/mul/{name}, picking matrix and x from the seeded
// sequence.
//
// End-to-end (client side): setup_s is the median time of registering
// both matrices until each returns 201; spmv_gflops is the geomean over
// matrices of 2*nnz over the median request latency. The report gives
// the latency percentiles and requests per second; the traced run
// reports them as spmvserve.client_* metrics.
func runServeHTTP(rc *runCtx) (*outcome, error) {
	rng := rand.New(rand.NewSource(rc.seed))
	n := len(rc.matrices)
	out := &outcome{metrics: map[string]float64{}}
	dir := filepath.Join(rc.outDir, "serve-http")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ms := make([]*spmv.Matrix, n)
	paths := make([]string, n)
	bodies := make([][][]byte, n)
	xs, refs := make([][][]float64, n), make([][][]float64, n)
	for i, s := range rc.matrices {
		m, err := spmv.SuiteMatrix(s.name, s.scale)
		if err != nil {
			return nil, err
		}
		ms[i] = m
		paths[i] = filepath.Join(dir, s.name+".mtx")
		if err := spmv.Save(paths[i], m); err != nil {
			return nil, err
		}
		for v := 0; v < vecsPerMat; v++ {
			x := randVec(rng, m.Cols())
			b, err := json.Marshal(map[string][]float64{"x": x})
			if err != nil {
				return nil, err
			}
			xs[i] = append(xs[i], x)
			refs[i] = append(refs[i], refOf(m, x))
			bodies[i] = append(bodies[i], b)
		}
		out.addWorkingSet(csrBytes(m.Rows(), m.Cols(), m.NNZ()))
	}
	plans := filepath.Join(dir, "plans")
	if err := seedPlans(plans, ms); err != nil {
		return nil, err
	}

	srv, err := startServer(rc, plans)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	runtime.GC() // set-up garbage is collected before timing
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		var setup float64
		for i, s := range rc.matrices {
			if rep > 0 {
				if err := srv.call("DELETE", "/v1/matrices/"+s.name, nil, http.StatusNoContent, nil); err != nil {
					return nil, err
				}
			}
			body, _ := json.Marshal(map[string]any{"mtx": paths[i], "warm": true}) // cannot fail on a string and a bool
			start := time.Now()
			if err := srv.call("POST", "/v1/matrices/"+s.name, body, http.StatusCreated, nil); err != nil {
				return nil, err
			}
			setup += time.Since(start).Seconds()
		}
		setups = append(setups, setup)
	}
	out.attempted += setupReps * n
	warmGuard(rc, out, srv, "after registration")

	names := make([]string, n)
	for i, s := range rc.matrices {
		names[i] = s.name
	}
	runtime.GC()
	load := closedLoop(rc, out, rc.seconds, func() poster { return srv.poster(names, bodies) },
		func(i, _ int, b []byte, _ []float64) error { return checkBody(b, ms[i].Rows()) })
	checkKept(rc, out, refs, load.kept)
	stats := warmGuard(rc, out, srv, "after load")

	if rc.tr == nil {
		rates := make([]float64, n)
		for i, m := range ms {
			rates[i] = 2 * float64(m.NNZ()) / median(load.perMat[i]) / 1e9
		}
		reportDist(rc.report, "request", load.all, 1e3, "ms")
		reportDist(rc.report, "setup", setups, 1, "s")
		fmt.Fprintf(rc.report, "requests_per_s: %.3f\n", float64(load.done)/load.wall)
		out.metrics["setup_s"] = median(setups)
		out.metrics["spmv_gflops"] = geomean(rates)
		return out, nil
	}
	return out, tracedServe(rc, out, ms, xs, refs, paths, plans, load, stats, median(setups))
}

// serverProc is a running spmvserve child process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *os.File
}

// startServer builds the command line, starts spmvserve on a free
// loopback port and waits for /healthz.
func startServer(rc *runCtx, plans string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(rc.outDir, "spmvserve.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(rc.server, "-addr", addr, "-plans", plans)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start spmvserve: %w", err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, client: &http.Client{Timeout: 120 * time.Second}, log: logf}
	for start := time.Now(); time.Since(start) < 30*time.Second; time.Sleep(50 * time.Millisecond) {
		if s.call("GET", "/healthz", nil, http.StatusOK, nil) == nil {
			return s, nil
		}
	}
	s.stop()
	return nil, errors.New("spmvserve did not become healthy within 30s")
}

// stop kills the server and waits for it to exit.
func (s *serverProc) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Kill() // already exited is fine
	_ = s.cmd.Wait()         // the exit status of a killed server carries nothing
	s.log.Close()
}

// call sends one request and fails unless the status is want; with
// into set, the response body is decoded into it.
func (s *serverProc) call(method, path string, body []byte, want int, into any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(b))
	}
	if into != nil {
		return json.Unmarshal(b, into)
	}
	return nil
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	Matrices []struct {
		Name             string
		Requests         uint64
		Batches          uint64
		P50LatencyMicros float64
		P99LatencyMicros float64
		Tunes            uint64
		WarmPrepares     uint64
		Errors           uint64
	}
}

// warmGuard fails the run unless every registered matrix was prepared
// exactly once, warm, from the seeded plan store.
func warmGuard(rc *runCtx, out *outcome, srv *serverProc, when string) serverStats {
	var st serverStats
	out.attempted++
	if err := srv.call("GET", "/v1/stats", nil, http.StatusOK, &st); err != nil {
		out.fail(rc, "stats %s: %v", when, err)
		return st
	}
	for _, m := range st.Matrices {
		if m.Tunes != 0 || m.WarmPrepares != 1 || m.Errors != 0 {
			out.fail(rc, "%s %s: tunes=%d warm_prepares=%d errors=%d, want 0, 1, 0", when, m.Name, m.Tunes, m.WarmPrepares, m.Errors)
		}
	}
	if len(st.Matrices) != len(rc.matrices) {
		out.fail(rc, "%s: %d matrices registered, want %d", when, len(st.Matrices), len(rc.matrices))
	}
	return st
}

// poster sends one multiply of matrix i by its v-th x vector and returns
// the response body (over HTTP) or the output vector (in process).
type poster func(i, v int) ([]byte, []float64, error)

// poster returns a client with its own connection that posts the
// pre-encoded bodies.
func (s *serverProc) poster(names []string, bodies [][][]byte) poster {
	urls := make([]string, len(names))
	for i, n := range names {
		urls[i] = s.base + "/v1/mul/" + n
	}
	client := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
	return func(i, v int) ([]byte, []float64, error) {
		resp, err := client.Post(urls[i], "application/json", bytes.NewReader(bodies[i][v]))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		}
		return b, nil, nil
	}
}

// kept is one response body saved for decoding after the timed phase.
type kept struct {
	mat, vec int
	body     []byte
}

// loadResult is what a closed-loop phase measured.
type loadResult struct {
	all    []float64   // latency of every request after the warm-up, seconds
	perMat [][]float64 // the same latencies by matrix
	done   int         // requests completed in wall seconds, warm-up included
	wall   float64
	kept   []kept
}

// closedLoop runs conns closed-loop clients for the given time after a
// short warm-up. Each response is checked, outside its timed interval;
// a seeded sample of bodies is kept for decoding afterwards.
func closedLoop(rc *runCtx, out *outcome, seconds time.Duration, newPoster func() poster, check func(i, v int, b []byte, y []float64) error) loadResult {
	n := len(rc.matrices)
	res := loadResult{perMat: make([][]float64, n)}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		failures []string
	)
	start := time.Now()
	deadline := start.Add(seconds)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			post := newPoster()
			rng := rand.New(rand.NewSource(rc.seed*1000 + int64(c)))
			var lat []float64
			per := make([][]float64, n)
			var keep []kept
			var fails []string
			for r := 0; ; r++ {
				if r >= warmupPerConn && time.Now().After(deadline) {
					break
				}
				i, v := rng.Intn(n), rng.Intn(vecsPerMat)
				t0 := time.Now()
				b, y, err := post(i, v)
				d := time.Since(t0).Seconds()
				if err == nil {
					err = check(i, v, b, y)
				}
				if err != nil {
					fails = append(fails, fmt.Sprintf("conn %d request %d %s: %v", c, r, rc.matrices[i].name, err))
				}
				// The first timed response and a seeded sample are kept.
				sample := rng.Intn(keepOneIn) == 0 || r == warmupPerConn
				if r < warmupPerConn {
					continue
				}
				lat = append(lat, d)
				per[i] = append(per[i], d)
				if sample && b != nil && err == nil && len(keep) < keepPerConn {
					keep = append(keep, kept{i, v, b})
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.all = append(res.all, lat...)
			for i := range per {
				res.perMat[i] = append(res.perMat[i], per[i]...)
			}
			res.kept = append(res.kept, keep...)
			failures = append(failures, fails...)
			res.done += len(lat) + warmupPerConn
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start).Seconds()
	out.attempted += res.done
	for _, f := range failures {
		out.fail(rc, "%s", f)
	}
	return res
}

// checkBody checks a multiply response's framing and element count
// without decoding it.
func checkBody(b []byte, rows int) error {
	if !bytes.HasPrefix(b, []byte(`{"y":[`)) || !bytes.HasSuffix(bytes.TrimSpace(b), []byte(`]}`)) {
		return fmt.Errorf("malformed response of %d bytes", len(b))
	}
	if got := bytes.Count(b, []byte(",")) + 1; got != rows {
		return fmt.Errorf("response has %d elements, want %d", got, rows)
	}
	return nil
}

// checkKept decodes the kept responses and compares them with the
// serial reference.
func checkKept(rc *runCtx, out *outcome, refs [][][]float64, ks []kept) {
	for _, k := range ks {
		out.attempted++
		var resp struct {
			Y []float64 `json:"y"`
		}
		if err := json.Unmarshal(k.body, &resp); err != nil {
			out.fail(rc, "decode kept response: %v", err)
			continue
		}
		if rc.corrupt != nil {
			rc.corrupt(resp.Y)
		}
		if e := relErr(resp.Y, refs[k.mat][k.vec]); !(e <= tolSpMV) {
			out.fail(rc, "%s response: relative error %.3g against the serial CSR reference", rc.matrices[k.mat].name, e)
		}
	}
}

// tracedServe adds the per-layer numbers: server-side stats, the same
// load in process through the facade Server, Matrix Market parse time,
// and the warm prepare through core.Pipeline on the counting shim.
func tracedServe(rc *runCtx, out *outcome, ms []*spmv.Matrix, xs, refs [][][]float64,
	paths []string, plans string, load loadResult, st serverStats, setup float64) error {
	tr := rc.tr
	var reqs, batches uint64
	var p50, p99, overhead float64
	for _, m := range st.Matrices {
		reqs += m.Requests
		batches += m.Batches
		p50 += m.P50LatencyMicros / float64(len(st.Matrices))
		p99 += m.P99LatencyMicros / float64(len(st.Matrices))
		for i, s := range rc.matrices {
			if s.name == m.Name {
				overhead += (median(load.perMat[i])*1e3 - m.P50LatencyMicros/1e3) / float64(len(st.Matrices))
			}
		}
	}
	if batches > 0 {
		out.metrics["serve.batch_width"] = float64(reqs) / float64(batches)
	}
	out.metrics["serve.p50_us"] = p50
	out.metrics["serve.p99_us"] = p99
	out.metrics["spmvserve.http_overhead_ms"] = overhead
	out.metrics["spmvserve.client_p50_ms"] = median(load.all) * 1e3
	out.metrics["spmvserve.client_p99_ms"] = percentile(load.all, 99) * 1e3
	out.metrics["spmvserve.requests_per_s"] = float64(load.done) / load.wall

	// Layer costs of one registration: parse, open the store, warm
	// prepare through the pipeline (fingerprint, store hit, kernel build).
	runtime.GC()
	csrs := make([]*matrix.CSR, len(paths))
	var parse float64
	for i, p := range paths {
		id := tr.start("mmio.parse", -1)
		m, err := mmio.ReadFile(p)
		parse += tr.stop(id)
		if err != nil {
			return err
		}
		csrs[i] = m
	}
	w, err := tracedWarmStart(rc, out, plans, csrs)
	if err != nil {
		return err
	}
	perMat := make([][]float64, len(csrs))
	for i, pk := range w.kernels {
		y := make([]float64, csrs[i].NRows)
		var sweeps []float64
		sweepKernels([]func(x, y []float64){pk.MulVec}, [][]float64{xs[i][0]}, [][]float64{y}, rc.seconds/20, perMat[i:i+1], &sweeps, tr)
		out.attempted += len(sweeps) + checkOutputs(rc, out, 0, [][]float64{y}, [][]float64{refs[i][0]})
	}
	out.metrics["mmio.parse_s"] = parse
	out.metrics["native.prepare_s"] = w.prep
	out.metrics["native.threads"] = float64(w.threads)
	out.metrics["planstore.hits"] = float64(w.hits)
	out.metrics["planstore.misses"] = float64(w.misses)
	out.metrics["opt.runs"] = float64(w.runs) / float64(len(csrs))
	kernelMetrics(rc, out, perMat, w.bytes, w.threads)
	w.close()

	inproc, err := inProcess(rc, out, ms, xs, refs, plans)
	if err != nil {
		return err
	}
	out.metrics["serve.inproc_p50_ms"] = median(inproc.all) * 1e3
	out.metrics["trace.coverage"] = (parse + w.open + w.prep) / setup
	out.metrics["trace.overhead_frac"] = tr.overheadFrac()
	fmt.Fprintf(rc.report, "coverage: parse %.4fs + store open %.4fs + prepare %.4fs against register-until-201 %.4fs\n", parse, w.open, w.prep, setup)
	return nil
}

// inProcess runs the same closed loop through the facade Server: the
// serving layer without HTTP and JSON.
func inProcess(rc *runCtx, out *outcome, ms []*spmv.Matrix, xs, refs [][][]float64, plans string) (loadResult, error) {
	t := spmv.NewTuner(spmv.WithPlanStore(plans))
	defer t.Close()
	s := spmv.NewServer(t, spmv.ServerConfig{})
	defer s.Close()
	for i, m := range ms {
		if err := s.Register(rc.matrices[i].name, m); err != nil {
			return loadResult{}, err
		}
		if err := s.Warm(rc.matrices[i].name); err != nil {
			return loadResult{}, err
		}
	}
	res := closedLoop(rc, out, rc.seconds/2, func() poster {
		ys := make([][]float64, len(ms))
		for i, m := range ms {
			ys[i] = make([]float64, m.Rows())
		}
		return func(i, v int) ([]byte, []float64, error) {
			return nil, ys[i], s.MulVec(rc.matrices[i].name, xs[i][v], ys[i])
		}
	}, func(i, v int, _ []byte, y []float64) error {
		if rc.corrupt != nil {
			rc.corrupt(y)
		}
		if e := relErr(y, refs[i][v]); !(e <= tolSpMV) {
			return fmt.Errorf("relative error %.3g against the serial CSR reference", e)
		}
		return nil
	})
	for _, st := range s.Stats() {
		out.attempted++
		if st.Tunes != 0 || st.WarmPrepares != 1 {
			out.fail(rc, "in process %s: tunes=%d warm_prepares=%d, want 0 and 1", st.Name, st.Tunes, st.WarmPrepares)
		}
	}
	return res, nil
}

// refOf is the serial reference product.
func refOf(m *spmv.Matrix, x []float64) []float64 {
	y := make([]float64, m.Rows())
	m.MulVec(x, y)
	return y
}
