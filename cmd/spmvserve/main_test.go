package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	spmv "github.com/sparsekit/spmvtuner"
)

func newTestServer(t *testing.T) (*httptest.Server, *spmv.Server) {
	t.Helper()
	tuner := spmv.NewTuner()
	srv := spmv.NewServer(tuner, spmv.ServerConfig{})
	ts := httptest.NewServer(newHandler(srv))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		tuner.Close()
	})
	return ts, srv
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && resp.StatusCode < 300 {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// postRaw posts body as is and returns the status and the "error"
// field of the JSON response, "" if it has none.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&out) // a success has no error field
	return resp.StatusCode, out.Error
}

func TestHTTPLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Register a suite matrix, warmed.
	var reg spmv.ServerStats
	code := doJSON(t, "POST", ts.URL+"/v1/matrices/p", registerBody{Suite: "poisson3Db", Scale: 0.01, Warm: true}, &reg)
	if code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	if reg.Name != "p" || reg.Tunes != 1 || reg.Plan == "" {
		t.Fatalf("register stats: %+v", reg)
	}

	var names struct {
		Matrices []string `json:"matrices"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/matrices", nil, &names); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(names.Matrices) != 1 || names.Matrices[0] != "p" {
		t.Fatalf("names: %v", names.Matrices)
	}

	// Multiply and check against the suite matrix served directly.
	m, err := spmv.SuiteMatrix("poisson3Db", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := m.Rows(), m.Cols()
	x := make([]float64, cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	var mul struct {
		Y []float64 `json:"y"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/mul/p", map[string]any{"x": x}, &mul); code != http.StatusOK {
		t.Fatalf("mul: %d", code)
	}
	if len(mul.Y) != rows {
		t.Fatalf("y has %d rows, want %d", len(mul.Y), rows)
	}
	ref := make([]float64, rows)
	m.MulVec(x, ref)
	for i := range ref {
		if d := math.Abs(mul.Y[i] - ref[i]); d > 1e-12*math.Max(1, math.Abs(ref[i])) {
			t.Fatalf("y[%d] = %g, want %g", i, mul.Y[i], ref[i])
		}
	}

	var stats struct {
		Matrices []spmv.ServerStats `json:"matrices"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if len(stats.Matrices) != 1 || stats.Matrices[0].Requests != 1 {
		t.Fatalf("stats: %+v", stats.Matrices)
	}
	// The kernel width: at least one thread, never above GOMAXPROCS.
	if th := stats.Matrices[0].Threads; th < 1 || th > runtime.GOMAXPROCS(0) {
		t.Fatalf("stats threads = %d, want 1..GOMAXPROCS (%d)", th, runtime.GOMAXPROCS(0))
	}

	if code := doJSON(t, "DELETE", ts.URL+"/v1/matrices/p", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/mul/p", map[string]any{"x": x}, nil); code != http.StatusNotFound {
		t.Fatalf("mul after delete: %d, want 404", code)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	ts, srv := newTestServer(t)

	if code := doJSON(t, "POST", ts.URL+"/v1/mul/ghost", map[string]any{"x": []float64{1}}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown matrix: %d, want 404", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/matrices/ghost", nil, nil); code != http.StatusNotFound {
		t.Fatalf("delete unknown: %d, want 404", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/matrices/x", registerBody{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty register body: %d, want 400", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/matrices/x", registerBody{Suite: "lap2d", Mtx: "/a.mtx"}, nil); code != http.StatusBadRequest {
		t.Fatalf("ambiguous register body: %d, want 400", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/matrices/x", registerBody{Suite: "no-such"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown suite matrix: %d, want 400", code)
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/matrices/p", registerBody{Suite: "poisson3Db", Scale: 0.01}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/matrices/p", registerBody{Suite: "poisson3Db", Scale: 0.01}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate register: %d, want 409", code)
	}
	// Wrong dimension is the caller's fault.
	if code := doJSON(t, "POST", ts.URL+"/v1/mul/p", map[string]any{"x": []float64{1, 2, 3}}, nil); code != http.StatusBadRequest {
		t.Fatalf("short x: %d, want 400", code)
	}
	if code, msg := postRaw(t, ts.URL+"/v1/mul/p", `{"x":[1,]}`); code != http.StatusBadRequest || msg == "" {
		t.Fatalf("malformed x: %d %q, want 400 with an error", code, msg)
	}
	// The name is looked up before the body is read.
	if code, _ := postRaw(t, ts.URL+"/v1/mul/ghost", "not json"); code != http.StatusNotFound {
		t.Fatalf("unknown matrix, malformed body: %d, want 404", code)
	}
	// A body longer than the limit for the matrix's width is 413.
	_, cols, ok := srv.Shape("p")
	if !ok {
		t.Fatal("registered matrix has no shape")
	}
	huge := `{"x":[` + strings.Repeat(" ", int(mulBodyLimit(cols))) + `]}`
	if code, msg := postRaw(t, ts.URL+"/v1/mul/p", huge); code != http.StatusRequestEntityTooLarge || msg == "" {
		t.Fatalf("oversized body: %d %q, want 413 with an error", code, msg)
	}

	// A closed server sheds load with 503.
	srv.Close()
	if code := doJSON(t, "POST", ts.URL+"/v1/mul/p", map[string]any{"x": []float64{1}}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("mul on closed server: %d, want 503", code)
	}
}

// TestHTTPConcurrentClients exercises the full stack — HTTP handler,
// facade, coalescing dispatcher, native kernels — under concurrent
// load, verifying every response.
func TestHTTPConcurrentClients(t *testing.T) {
	ts, _ := newTestServer(t)
	if code := doJSON(t, "POST", ts.URL+"/v1/matrices/m", registerBody{Suite: "FEM_3D_thermal2", Scale: 0.01, Warm: true}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	m, err := spmv.SuiteMatrix("FEM_3D_thermal2", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := m.Rows(), m.Cols()

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := make([]float64, cols)
			for i := range x {
				x[i] = float64((i+c)%5) - 2
			}
			ref := make([]float64, rows)
			m.MulVec(x, ref)
			for it := 0; it < 5; it++ {
				var mul struct {
					Y []float64 `json:"y"`
				}
				var buf bytes.Buffer
				if err := json.NewEncoder(&buf).Encode(map[string]any{"x": x}); err != nil {
					errc <- err
					return
				}
				resp, err := http.Post(ts.URL+"/v1/mul/m", "application/json", &buf)
				if err != nil {
					errc <- err
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&mul)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("client %d: code %d err %v", c, resp.StatusCode, err)
					return
				}
				for i := range ref {
					if d := math.Abs(mul.Y[i] - ref[i]); d > 1e-12*math.Max(1, math.Abs(ref[i])) {
						errc <- fmt.Errorf("client %d: y[%d] off by %g", c, i, d)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestHTTPRegisterMtx registers matrices from .mtx paths — a general
// file written by spmv.Save and a hand-written symmetric one that
// stores only its lower triangle — and checks each product against the
// reference multiply of the matrix the file describes. A truncated file
// is the caller's 400.
func TestHTTPRegisterMtx(t *testing.T) {
	ts, _ := newTestServer(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))

	gb := spmv.NewBuilder(40, 30)
	for k := 0; k < 200; k++ {
		gb.Add(rng.Intn(40), rng.Intn(30), rng.NormFloat64())
	}
	general := gb.Build()
	genPath := filepath.Join(dir, "general.mtx")
	if err := spmv.Save(genPath, general); err != nil {
		t.Fatal(err)
	}

	const n = 25
	sb := spmv.NewBuilder(n, n)
	var lower []string
	for i := 0; i < n; i++ {
		for _, d := range []int{0, 1, 3} {
			if j := i - d; j >= 0 {
				v := float64(1+i%5) / float64(1+d)
				lower = append(lower, fmt.Sprintf("%d %d %g", i+1, j+1, v))
				sb.Add(i, j, v)
				if j != i {
					sb.Add(j, i, v)
				}
			}
		}
	}
	symPath := filepath.Join(dir, "sym.mtx")
	symText := fmt.Sprintf("%%%%MatrixMarket matrix coordinate real symmetric\n%d %d %d\n%s\n",
		n, n, len(lower), strings.Join(lower, "\n"))
	if err := os.WriteFile(symPath, []byte(symText), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name, path string
		m          *spmv.Matrix
	}{{"general", genPath, general}, {"sym", symPath, sb.Build()}} {
		if code := doJSON(t, "POST", ts.URL+"/v1/matrices/"+c.name, registerBody{Mtx: c.path, Warm: true}, nil); code != http.StatusCreated {
			t.Fatalf("%s: register: %d", c.name, code)
		}
		x := make([]float64, c.m.Cols())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var mul struct {
			Y []float64 `json:"y"`
		}
		if code := doJSON(t, "POST", ts.URL+"/v1/mul/"+c.name, map[string]any{"x": x}, &mul); code != http.StatusOK {
			t.Fatalf("%s: mul: %d", c.name, code)
		}
		ref := make([]float64, c.m.Rows())
		c.m.MulVec(x, ref)
		if len(mul.Y) != len(ref) {
			t.Fatalf("%s: y has %d rows, want %d", c.name, len(mul.Y), len(ref))
		}
		for i := range ref {
			if d := math.Abs(mul.Y[i] - ref[i]); d > 1e-12*math.Max(1, math.Abs(ref[i])) {
				t.Fatalf("%s: y[%d] = %g, want %g", c.name, i, mul.Y[i], ref[i])
			}
		}
	}

	raw, err := os.ReadFile(genPath)
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(dir, "truncated.mtx")
	if err := os.WriteFile(cutPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/matrices/cut", registerBody{Mtx: cutPath}, nil); code != http.StatusBadRequest {
		t.Fatalf("truncated file: %d, want 400", code)
	}
}

// TestHTTPNonFiniteProduct: a product that overflows float64 has no
// JSON form, so the multiply answers 422 with a JSON error body, not a
// 200 with an empty one.
func TestHTTPNonFiniteProduct(t *testing.T) {
	ts, _ := newTestServer(t)
	path := filepath.Join(t.TempDir(), "huge.mtx")
	text := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1e308\n2 2 1\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/matrices/huge", registerBody{Mtx: path}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/mul/huge", "application/json", strings.NewReader(`{"x":[10,1]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("overflowed product: %d, want 422", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("422 body must be a JSON error: %+v, %v", body, err)
	}
}
