package calib

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sparsekit/spmvtuner/internal/machine"
)

// sample is a fully-populated artifact for serialization tests.
func sample() Calibration {
	return Calibration{
		Version:        CurrentVersion,
		Machine:        "host",
		NumCPU:         8,
		Cores:          4,
		ThreadsPerCore: 2,
		PerCoreGBs:     11.5,
		MainGBs:        38.25,
		LLCGBs:         96.125,
		ScalarGflops:   4.5,
		UsableThreads:  4,
		ThreadSweep: []BandwidthPoint{
			{Threads: 1, Elems: 1 << 22, GBs: 11.5},
			{Threads: 4, Elems: 1 << 22, GBs: 38.25},
		},
		WorkingSetSweep: []BandwidthPoint{
			{Threads: 4, Elems: 1 << 16, GBs: 96.125},
		},
		Library: Library,
	}
}

func TestEncodeDecodeFixedPoint(t *testing.T) {
	// Encode -> Decode -> Encode must be byte-identical: the artifact
	// is a stable on-disk format, not just a struct dump.
	c := sample()
	first, err := Encode(c)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := Decode(first)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	second, err := Encode(back)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip not a fixed point:\n%s\nvs\n%s", first, second)
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	c := sample()
	c.Version = CurrentVersion + 1
	// Marshal refuses an off-version artifact, so build the bytes by hand.
	data := []byte(`{"version":99,"machine":"host","numCPU":1,"cores":1,"threadsPerCore":1,"perCoreGBs":1,"mainGBs":1,"llcGBs":1,"usableThreads":1}`)
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version artifact must be rejected, got %v", err)
	}
	if _, err := Encode(c); err == nil {
		t.Fatal("encoding an off-version artifact must fail")
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	data, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	poisoned := bytes.Replace(data, []byte(`"version"`), []byte(`"turboBoost": true, "version"`), 1)
	if _, err := Decode(poisoned); err == nil {
		t.Fatal("unknown field must be a decode error, not silently dropped")
	}
}

func TestDecodeRejectsNonFiniteRates(t *testing.T) {
	// JSON cannot carry +Inf directly, but a hand-edited file can carry
	// huge-but-parseable garbage or zeros; Valid gates both decode and
	// encode paths.
	for _, body := range []string{
		`{"version":1,"machine":"host","numCPU":1,"cores":1,"threadsPerCore":1,"perCoreGBs":0,"mainGBs":1,"llcGBs":1,"usableThreads":1}`,
		`{"version":1,"machine":"host","numCPU":1,"cores":1,"threadsPerCore":1,"perCoreGBs":1,"mainGBs":-3,"llcGBs":1,"usableThreads":1}`,
		`{"version":1,"machine":"host","numCPU":0,"cores":1,"threadsPerCore":1,"perCoreGBs":1,"mainGBs":1,"llcGBs":1,"usableThreads":1}`,
	} {
		if _, err := Decode([]byte(body)); err == nil {
			t.Fatalf("invalid artifact decoded: %s", body)
		}
	}
	bad := sample()
	bad.MainGBs = math.Inf(1)
	if err := bad.Valid(); err == nil {
		t.Fatal("+Inf bandwidth must not validate")
	}
	bad.MainGBs = math.NaN()
	if err := bad.Valid(); err == nil {
		t.Fatal("NaN bandwidth must not validate")
	}
}

// hostileTopology is a well-formed artifact whose numCPU can match the
// host (so StaleFor trusts it) while its cores would size a worker
// pool of 2^20 goroutines through Apply.
const hostileTopology = `{"version":1,"machine":"host","numCPU":2,"cores":1048576,"threadsPerCore":1,"perCoreGBs":1,"mainGBs":1,"llcGBs":1,"usableThreads":1}`

// TestDecodeRejectsTopologyBeyondNumCPU: the topology must multiply
// out to NumCPU exactly, including when the factors would overflow
// into a match. Decoding only: nothing is built from these artifacts.
func TestDecodeRejectsTopologyBeyondNumCPU(t *testing.T) {
	for _, body := range []string{
		hostileTopology,
		// 4 cores x 1 thread on a 2-CPU host, and too few hardware
		// threads for the CPU count.
		strings.Replace(hostileTopology, `"cores":1048576`, `"cores":4`, 1),
		strings.Replace(hostileTopology, `"numCPU":2`, `"numCPU":4`, 1),
		// (2^62+1) x 4 wraps to 4 in 64-bit arithmetic.
		`{"version":1,"machine":"host","numCPU":4,"cores":4611686018427387905,"threadsPerCore":4,"perCoreGBs":1,"mainGBs":1,"llcGBs":1,"usableThreads":1}`,
	} {
		if c, err := Decode([]byte(body)); err == nil {
			t.Fatalf("topology %d cpus = %d cores x %d decoded", c.NumCPU, c.Cores, c.ThreadsPerCore)
		}
	}
	ok := strings.Replace(hostileTopology, `"cores":1048576`, `"cores":2`, 1)
	if _, err := Decode([]byte(ok)); err != nil {
		t.Fatalf("2 cores x 1 thread on 2 CPUs rejected: %v", err)
	}
}

func TestApplyOverridesCeilings(t *testing.T) {
	base := machine.Broadwell() // 22 cores x 2, L2 = 22 x 256 KiB
	c := sample()
	m := c.Apply(base)
	if m.StreamMainGBs != c.MainGBs || m.StreamLLCGBs != c.LLCGBs || m.PerCoreGBs != c.PerCoreGBs {
		t.Fatalf("bandwidths not applied: %+v", m)
	}
	if m.Cores != 4 || m.ThreadsPerCore != 2 {
		t.Fatalf("topology not applied: %d x %d", m.Cores, m.ThreadsPerCore)
	}
	perCore := base.L2Bytes / int64(base.Cores)
	if m.L2Bytes != 4*perCore {
		t.Fatalf("aggregate L2 = %d, want %d (4 cores x per-core slice)", m.L2Bytes, 4*perCore)
	}
	// Effective clock from the scalar probe: 4.5 Gflops at 2 flops/cycle.
	if want := 4.5 / base.ScalarFlopsPerCycle; m.FreqGHz != want {
		t.Fatalf("FreqGHz = %g, want %g", m.FreqGHz, want)
	}
	// Fields no probe covers stay put.
	if m.SIMDLanes != base.SIMDLanes || m.CacheLineBytes != base.CacheLineBytes {
		t.Fatal("uncovered fields must keep base values")
	}
}

func TestStaleFor(t *testing.T) {
	c := sample()
	host := machine.Host()
	host.Codename = "host"
	same := host
	same.Cores = 4
	same.ThreadsPerCore = 2 // Threads() == 8 == c.NumCPU
	if c.StaleFor(same) {
		t.Fatal("matching shape must not be stale")
	}
	bigger := same
	bigger.Cores = 16
	if !c.StaleFor(bigger) {
		t.Fatal("changed thread count must be stale")
	}
	renamed := same
	renamed.Codename = "bdw"
	if !c.StaleFor(renamed) {
		t.Fatal("different codename must be stale")
	}
}

// fakeProbes returns deterministic probe functions that count their
// invocations: triad rates scale with thread count up to four threads
// and cache-resident working sets run 3x faster.
func fakeProbes(runs *int) Probes {
	return Probes{
		Triad: func(elems, nt, iters int) float64 {
			*runs++
			eff := float64(nt)
			if eff > 4 {
				eff = 4
			}
			gbs := 10 * eff
			if elems < 1<<20 {
				gbs *= 3
			}
			return gbs
		},
		Scalar: func(iters int) float64 {
			*runs++
			return 4.0
		},
	}
}

func testBase() machine.Model {
	m := machine.Host()
	m.Codename = "host"
	m.Cores = 8
	m.ThreadsPerCore = 1
	return m
}

func TestMeasureDerivesCeilings(t *testing.T) {
	runs := 0
	c := Measure(fakeProbes(&runs), testBase())
	if err := c.Valid(); err != nil {
		t.Fatalf("measured artifact invalid: %v", err)
	}
	if c.PerCoreGBs != 10 {
		t.Fatalf("per-core = %g, want 10 (single-thread point)", c.PerCoreGBs)
	}
	if c.MainGBs != 40 {
		t.Fatalf("main = %g, want 40 (saturated at 4 threads)", c.MainGBs)
	}
	if c.LLCGBs != 120 {
		t.Fatalf("llc = %g, want 120 (cache-resident 3x)", c.LLCGBs)
	}
	if c.UsableThreads != 4 {
		t.Fatalf("usable threads = %d, want 4 (smallest saturating width)", c.UsableThreads)
	}
	if c.ScalarGflops != 4.0 {
		t.Fatalf("scalar = %g, want 4", c.ScalarGflops)
	}
	if runs == 0 {
		t.Fatal("probes never ran")
	}
}

func TestMeasureSurvivesBrokenProbes(t *testing.T) {
	// A probe that returns +Inf/0 on every point (satellite bug: coarse
	// clocks make bestSecs == 0) must still produce a Valid artifact by
	// falling back to the base model's static ceilings.
	base := testBase()
	c := Measure(Probes{Triad: func(_, _, _ int) float64 { return math.Inf(1) }}, base)
	if err := c.Valid(); err != nil {
		t.Fatalf("artifact from broken probes invalid: %v", err)
	}
	if c.MainGBs != base.StreamMainGBs || c.PerCoreGBs != base.PerCoreGBs {
		t.Fatal("broken probes must fall back to base ceilings")
	}
	if len(c.ThreadSweep) != 0 {
		t.Fatal("non-finite points must not be recorded")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sample()
	if err := Save(dir, want); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.MainGBs != want.MainGBs || got.UsableThreads != want.UsableThreads || len(got.ThreadSweep) != len(want.ThreadSweep) {
		t.Fatalf("loaded artifact differs: %+v", got)
	}
	if _, err := os.Stat(filepath.Join(dir, FileName)); err != nil {
		t.Fatalf("artifact file missing: %v", err)
	}
	// No temp droppings.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".calib-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestLoadMissingIsNotExist(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("load from empty dir must fail")
	}
}

func TestLoadOrMeasureProbesExactlyOnce(t *testing.T) {
	// The heart of the persistence story: first startup probes and
	// saves; every later startup loads the artifact with ZERO probe
	// runs and gets an identical calibration.
	dir := t.TempDir()
	base := testBase()

	runs := 0
	first, probed, err := LoadOrMeasure(dir, fakeProbes(&runs), base)
	if err != nil {
		t.Fatalf("first startup: %v", err)
	}
	if !probed || runs == 0 {
		t.Fatal("first startup must probe the hardware")
	}

	runs = 0
	second, probed, err := LoadOrMeasure(dir, fakeProbes(&runs), base)
	if err != nil {
		t.Fatalf("second startup: %v", err)
	}
	if probed {
		t.Fatal("second startup must load, not probe")
	}
	if runs != 0 {
		t.Fatalf("second startup ran %d probes, want 0", runs)
	}
	if second.MainGBs != first.MainGBs || second.LLCGBs != first.LLCGBs || second.UsableThreads != first.UsableThreads {
		t.Fatalf("persisted calibration differs: %+v vs %+v", first, second)
	}
}

func TestLoadOrMeasureHealsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	base := testBase()
	path := filepath.Join(dir, FileName)
	if err := os.WriteFile(path, []byte("{torn json"), 0o644); err != nil {
		t.Fatal(err)
	}

	runs := 0
	c, probed, err := LoadOrMeasure(dir, fakeProbes(&runs), base)
	if err != nil {
		t.Fatalf("heal: %v", err)
	}
	if !probed {
		t.Fatal("corrupt file must trigger a re-probe")
	}
	if err := c.Valid(); err != nil {
		t.Fatalf("healed artifact invalid: %v", err)
	}
	// The corrupt file must have been overwritten with a good one.
	healed, err := Load(dir)
	if err != nil {
		t.Fatalf("load after heal: %v", err)
	}
	if healed.MainGBs != c.MainGBs {
		t.Fatal("healed file does not match the fresh measurement")
	}
}

func TestLoadOrMeasureReprobesStaleShape(t *testing.T) {
	dir := t.TempDir()
	base := testBase()
	runs := 0
	if _, _, err := LoadOrMeasure(dir, fakeProbes(&runs), base); err != nil {
		t.Fatal(err)
	}
	// Same dir, different machine shape: the artifact is stale.
	wider := base
	wider.Cores = 16
	runs = 0
	_, probed, err := LoadOrMeasure(dir, fakeProbes(&runs), wider)
	if err != nil {
		t.Fatal(err)
	}
	if !probed || runs == 0 {
		t.Fatal("different host shape must re-probe")
	}
}

func TestPlanCapacity(t *testing.T) {
	c := sample() // MainGBs = 38.25
	demands := []Demand{
		// 100 req/s x 2 ms = 0.2 busy-seconds; 100 x 80 MB = 8 GB/s.
		{Name: "a", RequestsPerSec: 100, SecondsPerOp: 0.002, BytesPerOp: 80e6, Gflops: 2},
		// 50 req/s x 10 ms = 0.5 busy-seconds; 50 x 800 MB = 40 GB/s.
		{Name: "b", RequestsPerSec: 50, SecondsPerOp: 0.010, BytesPerOp: 800e6, Gflops: 1.5},
	}
	got, err := c.PlanCapacity(demands, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	// Bandwidth: 48 GB/s over 38.25 GB/s = 1.2549... hosts; compute is
	// 0.7 hosts. Bandwidth binds: ceil(1.2549/0.7) = 2.
	if got.Binding != "bandwidth" {
		t.Fatalf("binding = %s, want bandwidth (SpMV is memory-bound)", got.Binding)
	}
	if got.Replicas != 2 {
		t.Fatalf("replicas = %d, want 2", got.Replicas)
	}
	if math.Abs(got.ComputeUtil-0.7) > 1e-12 {
		t.Fatalf("compute util = %g, want 0.7", got.ComputeUtil)
	}
	if math.Abs(got.BandwidthUtil-48e9/38.25e9) > 1e-12 {
		t.Fatalf("bandwidth util = %g", got.BandwidthUtil)
	}
}

func TestPlanCapacityEmptyMixAndErrors(t *testing.T) {
	c := sample()
	got, err := c.PlanCapacity(nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Replicas != 1 {
		t.Fatalf("empty mix should still need one replica, got %d", got.Replicas)
	}
	if _, err := c.PlanCapacity(nil, 0); err == nil {
		t.Fatal("zero headroom must error")
	}
	if _, err := c.PlanCapacity(nil, 1.5); err == nil {
		t.Fatal("headroom above 1 must error")
	}
	bad := []Demand{{Name: "x", RequestsPerSec: math.Inf(1)}}
	if _, err := c.PlanCapacity(bad, 0.5); err == nil {
		t.Fatal("non-finite demand must error")
	}
}

func TestThreadSteps(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1, []int{1}},
		{4, []int{1, 2, 4}},
		{6, []int{1, 2, 4, 6}},
		{0, []int{1}},
	}
	for _, cse := range cases {
		got := threadSteps(cse.max)
		if len(got) != len(cse.want) {
			t.Fatalf("threadSteps(%d) = %v, want %v", cse.max, got, cse.want)
		}
		for i := range got {
			if got[i] != cse.want[i] {
				t.Fatalf("threadSteps(%d) = %v, want %v", cse.max, got, cse.want)
			}
		}
	}
}
