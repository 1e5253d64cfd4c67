// Command spmvserve runs the multi-tenant SpMV server over HTTP: many
// named matrices, each lazily tuned once (warm-started from the plan
// store when -plans is set), concurrent multiply requests coalesced
// into batches, and prepared kernels held under an LRU memory budget.
//
//	spmvserve -suite FEM_3D_thermal2,poisson3Db -scale 0.25
//	spmvserve -mtx /data/bcsstk17.mtx -plans /var/lib/spmv/plans
//
// API:
//
//	GET    /healthz                 liveness
//	GET    /v1/matrices             registered names
//	POST   /v1/matrices/{name}      register: {"suite":"lap2d","scale":0.5} or {"mtx":"/path.mtx"}; "warm":true tunes now
//	DELETE /v1/matrices/{name}      deregister and release
//	POST   /v1/mul/{name}           {"x":[...]} -> {"y":[...]} (coalesces with concurrent callers)
//	GET    /v1/stats                per-matrix serving counters
//
// Unknown names are 404, a full queue or a closing server 503 (retry),
// malformed requests 400, a product with no JSON form (±Inf or NaN) 422.
//
// A multiply looks the name up before it reads the body, so an unknown
// name is 404 whatever the body holds. The body may hold at most 64
// bytes per column of the matrix plus 4 KiB; a longer one is 413. A
// body of exactly {"x":[...]} with plain JSON numbers is decoded by a
// byte scanner and the product written by strconv, both on buffers
// pooled across requests (codec.go); any other body goes through
// encoding/json, so what is accepted, the values and the error text are
// encoding/json's either way.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	spmv "github.com/sparsekit/spmvtuner"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		suiteCSV = flag.String("suite", "", "comma-separated suite matrices to preload")
		scale    = flag.Float64("scale", 1.0, "suite size multiplier for -suite preloads")
		mtxCSV   = flag.String("mtx", "", "comma-separated MatrixMarket files to preload (named by file stem)")
		maxBatch = flag.Int("max-batch", 0, "max requests coalesced per batch (default 8)")
		budgetMB = flag.Int64("budget-mb", 0, "prepared-kernel memory budget in MiB (0 = unlimited)")
		queue    = flag.Int("queue", 0, "per-matrix queue depth before 503 (default 256)")
		plans    = flag.String("plans", "", "plan store directory (persists tuning across restarts)")
		warm     = flag.Bool("warm", true, "tune preloaded matrices before serving")
	)
	flag.Parse()

	var opts []spmv.Option
	if *plans != "" {
		opts = append(opts, spmv.WithPlanStore(*plans))
	}
	tuner := spmv.NewTuner(opts...)
	defer tuner.Close()

	srv := spmv.NewServer(tuner, spmv.ServerConfig{
		MaxBatch:     *maxBatch,
		MemoryBudget: *budgetMB << 20,
		QueueDepth:   *queue,
	})
	defer srv.Close()

	if err := preload(srv, *suiteCSV, *mtxCSV, *scale, *warm); err != nil {
		log.Fatalf("spmvserve: %v", err)
	}

	log.Printf("spmvserve: listening on %s (matrices: %v)", *addr, srv.Names())
	if err := http.ListenAndServe(*addr, newHandler(srv)); err != nil {
		log.Fatalf("spmvserve: %v", err)
	}
}

// preload registers the matrices named on the command line.
func preload(srv *spmv.Server, suiteCSV, mtxCSV string, scale float64, warm bool) error {
	names := []string{}
	if suiteCSV != "" {
		for _, n := range strings.Split(suiteCSV, ",") {
			m, err := spmv.SuiteMatrix(n, scale)
			if err != nil {
				return err
			}
			if err := srv.Register(n, m); err != nil {
				return err
			}
			names = append(names, n)
		}
	}
	if mtxCSV != "" {
		for _, path := range strings.Split(mtxCSV, ",") {
			m, err := spmv.Load(path)
			if err != nil {
				return err
			}
			n := m.Name()
			if err := srv.Register(n, m); err != nil {
				return err
			}
			names = append(names, n)
		}
	}
	if warm {
		for _, n := range names {
			start := time.Now()
			if err := srv.Warm(n); err != nil {
				return fmt.Errorf("warm %s: %w", n, err)
			}
			if st, ok := srv.StatsFor(n); ok {
				log.Printf("spmvserve: %s ready in %.0fms (plan %s, %.2f GF/s at tune time)",
					n, time.Since(start).Seconds()*1e3, st.Plan, st.Gflops)
			}
		}
	}
	return nil
}

// registerBody is the POST /v1/matrices/{name} payload: exactly one
// matrix source, plus an optional eager tune.
type registerBody struct {
	Suite string  `json:"suite,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Mtx   string  `json:"mtx,omitempty"`
	Warm  bool    `json:"warm,omitempty"`
}

// newHandler builds the HTTP API over a server. Split from main so the
// tests drive it through httptest.
func newHandler(srv *spmv.Server) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("GET /v1/matrices", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"matrices": srv.Names()})
	})

	mux.HandleFunc("POST /v1/matrices/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		var body registerBody
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
			return
		}
		var (
			m   *spmv.Matrix
			err error
		)
		switch {
		case body.Suite != "" && body.Mtx != "":
			httpError(w, http.StatusBadRequest, errors.New(`"suite" and "mtx" are mutually exclusive`))
			return
		case body.Suite != "":
			scale := body.Scale
			if scale == 0 {
				scale = 1.0
			}
			m, err = spmv.SuiteMatrix(body.Suite, scale)
		case body.Mtx != "":
			m, err = spmv.Load(body.Mtx)
		default:
			httpError(w, http.StatusBadRequest, errors.New(`need "suite" or "mtx"`))
			return
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if err := srv.Register(name, m); err != nil {
			httpError(w, statusFor(err, http.StatusConflict), err)
			return
		}
		if body.Warm {
			if err := srv.Warm(name); err != nil {
				httpError(w, statusFor(err, http.StatusInternalServerError), err)
				return
			}
		}
		st, _ := srv.StatsFor(name)
		writeJSON(w, http.StatusCreated, st)
	})

	mux.HandleFunc("DELETE /v1/matrices/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := srv.Deregister(r.PathValue("name")); err != nil {
			httpError(w, statusFor(err, http.StatusInternalServerError), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/mul/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		rows, cols, ok := srv.Shape(name)
		if !ok {
			// No matrix means no entry OR a closed server; the submit
			// path distinguishes them (ErrNotRegistered vs
			// ErrServerClosed).
			err := srv.MulVec(name, nil, nil)
			httpError(w, statusFor(err, http.StatusNotFound), err)
			return
		}
		s := mulPool.Get().(*mulScratch)
		defer mulPool.Put(s)
		limit := mulBodyLimit(cols)
		if err := s.readBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit); err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, fmt.Errorf("bad body: %w", err))
			return
		}
		x, err := decodeX(s.body.Bytes(), s.x)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
			return
		}
		s.x = x
		if cap(s.y) < rows {
			s.y = make([]float64, rows)
		}
		y := s.y[:rows]
		if err := srv.MulVec(name, x, y); err != nil {
			httpError(w, statusFor(err, http.StatusBadRequest), err)
			return
		}
		if s.out, ok = appendY(s.out[:0], y); !ok {
			writeJSON(w, http.StatusOK, map[string]any{"y": y}) // answers 422
			return
		}
		writeBody(w, http.StatusOK, s.out)
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"matrices": srv.Stats()})
	})

	return mux
}

// statusFor maps serving errors onto HTTP: unknown names are the
// caller's 404, backpressure and shutdown are retryable 503s, and
// anything else takes the handler's fallback.
func statusFor(err error, fallback int) int {
	switch {
	case errors.Is(err, spmv.ErrNotRegistered):
		return http.StatusNotFound
	case errors.Is(err, spmv.ErrServerBusy), errors.Is(err, spmv.ErrServerClosed):
		return http.StatusServiceUnavailable
	default:
		return fallback
	}
}

// writeJSON marshals v before sending the status, so a value with no
// JSON form — a non-finite float in an overflowed product — answers
// 422 with an error body instead of the intended status with none.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusUnprocessableEntity
		body, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	writeBody(w, code, append(body, '\n'))
}

// writeBody sends a JSON body, its trailing newline included.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		fmt.Fprintln(os.Stderr, "spmvserve: write:", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
