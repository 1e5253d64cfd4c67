package sched

import (
	"testing"
	"testing/quick"

	"github.com/sparsekit/spmvtuner/internal/gen"
	"github.com/sparsekit/spmvtuner/internal/matrix"
)

func coverExactly(t *testing.T, ps []Range, n int) {
	t.Helper()
	row := 0
	for i, r := range ps {
		if r.Lo != row {
			t.Fatalf("range %d starts at %d, want %d", i, r.Lo, row)
		}
		if r.Hi < r.Lo {
			t.Fatalf("range %d inverted: %+v", i, r)
		}
		row = r.Hi
	}
	if row != n {
		t.Fatalf("ranges cover %d rows, want %d", row, n)
	}
}

func TestPartitionRows(t *testing.T) {
	ps := PartitionRows(100, 7)
	coverExactly(t, ps, 100)
	for _, r := range ps {
		if r.Rows() < 14 || r.Rows() > 15 {
			t.Fatalf("uneven static-rows partition: %+v", r)
		}
	}
}

func TestPartitionRowsMoreThreadsThanRows(t *testing.T) {
	ps := PartitionRows(3, 8)
	coverExactly(t, ps, 3)
}

func TestPartitionNNZBalanced(t *testing.T) {
	m := gen.UniformRandom(1000, 8, 1)
	nt := 13
	ps := PartitionNNZ(m, nt)
	coverExactly(t, ps, m.NRows)
	counts := NNZOf(m, ps)
	target := int64(m.NNZ()) / int64(nt)
	for i, c := range counts {
		if c < target-16 || c > target+16 {
			t.Fatalf("thread %d nnz %d far from target %d", i, c, target)
		}
	}
}

func TestPartitionNNZDenseRowImbalance(t *testing.T) {
	// A matrix with one huge row cannot be balanced by contiguous
	// partitioning: the long row's holder gets nearly all nnz. The
	// partitioner must still cover all rows exactly.
	m := gen.FewDenseRows(500, 2, 1, 450, 3)
	ps := PartitionNNZ(m, 8)
	coverExactly(t, ps, m.NRows)
}

func TestPartitionNNZSingleThread(t *testing.T) {
	m := gen.Banded(50, 2, 1, 1)
	ps := PartitionNNZ(m, 1)
	coverExactly(t, ps, 50)
	if ps[0].Lo != 0 || ps[0].Hi != 50 {
		t.Fatalf("single thread range %+v", ps[0])
	}
}

func TestChunksCoverDynamic(t *testing.T) {
	cs := Chunks(Dynamic, 103, 4, 10)
	coverExactly(t, cs, 103)
	for _, c := range cs[:len(cs)-1] {
		if c.Rows() != 10 {
			t.Fatalf("dynamic chunk %+v, want 10 rows", c)
		}
	}
}

func TestChunksCoverGuided(t *testing.T) {
	cs := Chunks(Guided, 1000, 4, 8)
	coverExactly(t, cs, 1000)
	// Guided chunks must be non-increasing (until the floor).
	for i := 1; i < len(cs); i++ {
		if cs[i].Rows() > cs[i-1].Rows() {
			t.Fatalf("guided chunks grew: %d then %d", cs[i-1].Rows(), cs[i].Rows())
		}
	}
	if cs[0].Rows() != 250 {
		t.Fatalf("first guided chunk %d, want remaining/nt = 250", cs[0].Rows())
	}
}

// TestChunksClampNonPositiveThreads is the regression test for the
// integer divide-by-zero: Chunks(Guided, 100, 0, 0) used to panic
// because DefaultChunk and the guided loop divide by nt. Both now
// clamp nt to 1, as PartitionRows always has.
func TestChunksClampNonPositiveThreads(t *testing.T) {
	for _, nt := range []int{0, -3} {
		coverExactly(t, Chunks(Guided, 100, nt, 0), 100)
		coverExactly(t, Chunks(Dynamic, 100, nt, 0), 100)
	}
	if c := DefaultChunk(100, 0); c < 1 {
		t.Fatalf("DefaultChunk(100, 0) = %d, want >= 1", c)
	}
	if c := DefaultChunk(1<<20, -1); c != DefaultChunk(1<<20, 1) {
		t.Fatalf("negative nt chunk = %d, want the nt=1 chunk %d", c, DefaultChunk(1<<20, 1))
	}
}

func TestDefaultChunkFloor(t *testing.T) {
	if c := DefaultChunk(10, 64); c != 8 {
		t.Fatalf("tiny matrix chunk = %d, want floor 8", c)
	}
	if c := DefaultChunk(1<<20, 4); c != 1<<20/64 {
		t.Fatalf("large matrix chunk = %d", c)
	}
}

func TestUnevenness(t *testing.T) {
	uniform := gen.UniformRandom(500, 8, 1)
	if u := Unevenness(uniform); u > 0.5 {
		t.Fatalf("uniform unevenness = %g, want near 0", u)
	}
	skew := gen.FewDenseRows(500, 4, 2, 400, 1)
	if u := Unevenness(skew); u < 1 {
		t.Fatalf("skewed unevenness = %g, want > 1", u)
	}
}

func TestResolveAuto(t *testing.T) {
	longRow := gen.FewDenseRows(2000, 3, 3, 1800, 1)
	if got := Resolve(Auto, gen.UniformRandom(500, 8, 1), 2); got != StaticNNZ {
		t.Fatalf("auto on balanced matrix = %v, want static-nnz", got)
	}
	if got := Resolve(Auto, longRow, 2); got != Dynamic {
		t.Fatalf("auto on skewed matrix at 2 threads = %v, want dynamic", got)
	}
	// One thread has no imbalance to correct: no chunk cursor.
	if got := Resolve(Auto, longRow, 1); got != StaticNNZ {
		t.Fatalf("auto on skewed matrix at 1 thread = %v, want static-nnz", got)
	}
	if sp := Prepare(Auto, longRow, 1); sp.Chunks != nil {
		t.Fatalf("auto at 1 thread prepared %d chunks, want none", len(sp.Chunks))
	}
	if got := Resolve(Dynamic, gen.UniformRandom(100, 4, 1), 1); got != Dynamic {
		t.Fatalf("non-auto policy must resolve to itself, got %v", got)
	}
}

func TestPartitionForPolicies(t *testing.T) {
	m := gen.UniformRandom(300, 6, 2)
	for _, p := range []Policy{StaticRows, StaticNNZ, Dynamic, Guided, Auto} {
		ps := PartitionFor(p, m, 5)
		coverExactly(t, ps, m.NRows)
	}
}

func TestPolicyString(t *testing.T) {
	names := map[Policy]string{
		StaticRows: "static-rows",
		StaticNNZ:  "static-nnz",
		Dynamic:    "dynamic",
		Guided:     "guided",
		Auto:       "auto",
		Policy(99): "policy(99)",
	}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("String(%d) = %q, want %q", int(p), p.String(), want)
		}
	}
}

// Property: both static partitioners cover [0, n) exactly for any
// thread count, and nnz partition sums match the matrix total.
func TestPartitionCoverageQuick(t *testing.T) {
	f := func(seed int64, rawNT uint8) bool {
		n := 20 + int(uint64(seed)%300)
		nt := 1 + int(rawNT)%32
		m := gen.PowerLaw(n, 5, 2.0, n, seed)
		for _, ps := range [][]Range{PartitionRows(n, nt), PartitionNNZ(m, nt)} {
			row := 0
			for _, r := range ps {
				if r.Lo != row || r.Hi < r.Lo {
					return false
				}
				row = r.Hi
			}
			if row != n {
				return false
			}
		}
		var total int64
		for _, c := range NNZOf(m, PartitionNNZ(m, nt)) {
			total += c
		}
		return total == int64(m.NNZ())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: nnz-balanced partitioning never has a worse max-load than
// row partitioning by more than the longest single row (contiguity
// bound).
func TestNNZBalanceQualityQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := 50 + int(uint64(seed)%200)
		m := gen.UniformRandom(n, 6, seed)
		nt := 4
		nnzP := NNZOf(m, PartitionNNZ(m, nt))
		var maxNNZ int64
		for _, c := range nnzP {
			if c > maxNNZ {
				maxNNZ = c
			}
		}
		target := int64(m.NNZ()+nt-1) / int64(nt)
		var longest int64
		for i := 0; i < n; i++ {
			if l := m.RowPtr[i+1] - m.RowPtr[i]; l > longest {
				longest = l
			}
		}
		return maxNNZ <= target+longest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

var _ = matrix.CSR{} // keep import if helpers change

// Prepare must freeze the resolved policy and every partition the
// execution engine consumes: static parts always, chunk queues only for
// the chunked policies.
func TestPrepareMaterializesPartitions(t *testing.T) {
	m := gen.UniformRandom(500, 6, 31)
	nt := 4
	for _, p := range []Policy{StaticNNZ, StaticRows, Dynamic, Guided, Auto} {
		sp := Prepare(p, m, nt)
		if sp.Policy == Auto {
			t.Fatalf("%v: Auto not resolved", p)
		}
		if sp.Policy != Resolve(p, m, nt) {
			t.Fatalf("%v: resolved to %v, want %v", p, sp.Policy, Resolve(p, m, nt))
		}
		if len(sp.Parts) != nt {
			t.Fatalf("%v: %d parts, want %d", p, len(sp.Parts), nt)
		}
		chunked := sp.Policy == Dynamic || sp.Policy == Guided
		if chunked && len(sp.Chunks) == 0 {
			t.Fatalf("%v: chunked policy has no chunk queue", p)
		}
		if !chunked && sp.Chunks != nil {
			t.Fatalf("%v: static policy has a chunk queue", p)
		}
		if chunked {
			row := 0
			for _, c := range sp.Chunks {
				if c.Lo != row {
					t.Fatalf("%v: chunk gap at %d", p, c.Lo)
				}
				row = c.Hi
			}
			if row != m.NRows {
				t.Fatalf("%v: chunks cover %d rows, want %d", p, row, m.NRows)
			}
		}
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for p := StaticNNZ; p <= Auto; p++ {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("simd-magic"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := ParsePolicy("policy(7)"); err == nil {
		t.Fatal("out-of-range render accepted")
	}
}
