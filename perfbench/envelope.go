package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/kernels"
	"github.com/sparsekit/spmvtuner/internal/machine"
	"github.com/sparsekit/spmvtuner/internal/native"
	"github.com/sparsekit/spmvtuner/internal/suite"
)

// envelope records what produced a result: code revision, toolchain,
// ISA, thread counts and the cache the workload's data fits in.
type envelope struct {
	Revision      string       `json:"revision"`
	Modified      bool         `json:"modified"`
	GoVersion     string       `json:"go_version"`
	GOARCH        string       `json:"goarch"`
	ISA           string       `json:"isa"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	NProc         int          `json:"nproc"`
	NativeThreads int          `json:"native_threads"`
	Caches        []cacheLevel `json:"caches"`
	LLCBytes      int64        `json:"llc_bytes"`
	WorkingSet    workingSet   `json:"working_set"`
}

type cacheLevel struct {
	Level int    `json:"level"`
	Bytes int64  `json:"bytes"`
	From  string `json:"from"` // "sysfs" or "model"
}

// workingSet is computed, not measured: CSR storage plus x and y (and,
// for solve, the CG vectors) of every matrix the workload cycles
// through, and of its largest matrix alone.
type workingSet struct {
	Workload      string `json:"workload"`
	Bytes         int64  `json:"bytes"`
	FitsIn        string `json:"fits_in"`
	LargestBytes  int64  `json:"largest_matrix_bytes"`
	LargestFitsIn string `json:"largest_matrix_fits_in"`
}

func newEnvelope() *envelope {
	e := &envelope{
		Revision:   "unknown",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		ISA:        kernels.ISA(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	e.NativeThreads = resolvedThreads()
	e.Caches = hostCaches()
	for _, c := range e.Caches {
		if c.Bytes > e.LLCBytes {
			e.LLCBytes = c.Bytes
		}
	}
	return e
}

// resolvedThreads is the thread count the native executor gives a
// matrix large enough to use every usable thread: the executor's own
// STREAM probe decides it.
func resolvedThreads() int {
	nat := native.NewWithModel(machine.Host())
	defer nat.Close()
	m := suite.ByName("lap2d", 0.05)
	k := nat.Prepare(m, ex.Optim{})
	return k.(*native.Prepared).Threads()
}

// hostCaches reads the data and unified cache sizes of cpu0 from sysfs,
// falling back to the host model's guesses when sysfs is unreadable.
func hostCaches() []cacheLevel {
	var out []cacheLevel
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		typ, err1 := os.ReadFile(filepath.Join(d, "type"))
		lvl, err2 := os.ReadFile(filepath.Join(d, "level"))
		size, err3 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil || err3 != nil || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		l, err := strconv.Atoi(strings.TrimSpace(string(lvl)))
		b, ok := parseCacheSize(strings.TrimSpace(string(size)))
		if err != nil || !ok {
			continue
		}
		out = append(out, cacheLevel{l, b, "sysfs"})
	}
	if len(out) == 0 {
		h := machine.Host()
		out = []cacheLevel{{1, h.L1DBytes, "model"}, {2, h.L2Bytes, "model"}, {3, h.L3Bytes, "model"}}
	}
	return out
}

// parseCacheSize reads sysfs sizes such as "48K" or "107520K".
func parseCacheSize(s string) (int64, bool) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	return n * mult, err == nil && n > 0
}

// fitsIn names the smallest cache level that holds bytes, or "DRAM".
// Only a working set labelled DRAM may have its rates read as main-memory
// bandwidth.
func (e *envelope) fitsIn(bytes int64) string {
	best := 0
	for _, c := range e.Caches {
		if bytes <= c.Bytes && (best == 0 || c.Level < best) {
			best = c.Level
		}
	}
	if best == 0 {
		return "DRAM"
	}
	return fmt.Sprintf("L%d", best)
}

func (e *envelope) setWorkingSet(workload string, total, largest int64) {
	e.WorkingSet = workingSet{workload, total, e.fitsIn(total), largest, e.fitsIn(largest)}
}

func (e *envelope) print(w io.Writer) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "envelope: %s\n", b)
	return err
}
