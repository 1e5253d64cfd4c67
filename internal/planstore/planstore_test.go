package planstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	ex "github.com/sparsekit/spmvtuner/internal/exec"
	"github.com/sparsekit/spmvtuner/internal/plan"
)

func testPlan(fp, mach string) plan.Plan {
	return plan.Plan{
		Version:     plan.CurrentVersion,
		Fingerprint: fp,
		Machine:     mach,
		Optimizer:   "oracle",
		Opt:         ex.Optim{Vectorize: true, Format: ex.FormatDelta},
		Library:     plan.Library,
	}
}

func key(fp, mach string) Key {
	return Key{Fingerprint: fp, Machine: mach, Version: plan.CurrentVersion}
}

func TestMemoryStorePutGetLRU(t *testing.T) {
	s := New(2)
	for i := 0; i < 3; i++ {
		fp := fmt.Sprintf("fp-%d", i)
		if err := s.Put(key(fp, "host"), testPlan(fp, "host")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(key("fp-0", "host")); ok {
		t.Fatal("LRU kept the evicted entry")
	}
	for _, fp := range []string{"fp-1", "fp-2"} {
		got, ok := s.Get(key(fp, "host"))
		if !ok || got.Fingerprint != fp {
			t.Fatalf("lost %s: ok=%v got=%+v", fp, ok, got)
		}
	}
	// Touch fp-1, insert fp-3: fp-2 must be the victim now.
	s.Get(key("fp-1", "host"))
	if err := s.Put(key("fp-3", "host"), testPlan("fp-3", "host")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key("fp-2", "host")); ok {
		t.Fatal("LRU evicted the recently used entry instead")
	}
	if _, ok := s.Get(key("fp-1", "host")); !ok {
		t.Fatal("recently used entry evicted")
	}
}

func TestKeysAreFullyQualified(t *testing.T) {
	s := New(8)
	if err := s.Put(key("fp", "knl"), testPlan("fp", "knl")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key("fp", "bdw")); ok {
		t.Fatal("machine ignored in key")
	}
	if _, ok := s.Get(Key{Fingerprint: "fp", Machine: "knl", Version: plan.CurrentVersion + 1}); ok {
		t.Fatal("version ignored in key")
	}
}

func TestDiskStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := key("v1-5x5-9-gen-00ff", "host")
	if err := s.Put(k, testPlan("v1-5x5-9-gen-00ff", "host")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	// Fresh handle = fresh process: the entry must come off disk.
	s2, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(k)
	if !ok {
		t.Fatal("disk entry lost across reopen")
	}
	if got.Fingerprint != k.Fingerprint || got.Opt.Format != ex.FormatDelta {
		t.Fatalf("disk round trip drifted: %+v", got)
	}
}

// TestDiskWriteIsAtomic: a Put must leave exactly the final entry
// file — no temp leftovers — and the entry must be complete valid
// JSON (the temp-file + rename discipline).
func TestDiskWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := key("fp-atomic", "host")
	for i := 0; i < 5; i++ { // overwrites must stay atomic too
		if err := s.Put(k, testPlan("fp-atomic", "host")); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("store dir not clean after Put: %v", names)
	}
	if strings.Contains(ents[0].Name(), ".tmp") {
		t.Fatalf("temp file left behind: %s", ents[0].Name())
	}
	data, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Decode(data); err != nil {
		t.Fatalf("entry file not a complete plan: %v", err)
	}
}

// TestCorruptEntrySkipAndRetune: a torn or garbage entry file must
// read as a miss, be deleted, and be healed by the next Put.
func TestCorruptEntrySkipAndRetune(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := key("fp-corrupt", "host")
	if err := s.Put(k, testPlan("fp-corrupt", "host")); err != nil {
		t.Fatal(err)
	}
	path := s.filename(k)
	if err := os.WriteFile(path, []byte(`{"version": 1, "form`), 0o644); err != nil {
		t.Fatal(err)
	}

	// Fresh handle so the memory front cannot mask the corruption.
	s2, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(k); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not deleted")
	}
	// Retune path: Put heals, Get serves again.
	if err := s2.Put(k, testPlan("fp-corrupt", "host")); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get(k); !ok {
		t.Fatal("healed entry not served")
	}
}

// TestMisnamedEntryRejected: an entry whose content does not match
// the key it is filed under (renamed or copied over) is a miss.
func TestMisnamedEntryRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key("fp-a", "host"), testPlan("fp-a", "host")); err != nil {
		t.Fatal(err)
	}
	// File fp-a's plan under fp-b's name.
	if err := os.Rename(s.filename(key("fp-a", "host")), s.filename(key("fp-b", "host"))); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(key("fp-b", "host")); ok {
		t.Fatal("misnamed entry served under the wrong key")
	}
}

func TestDeleteRemovesMemoryAndDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := key("fp-del", "host")
	if err := s.Put(k, testPlan("fp-del", "host")); err != nil {
		t.Fatal(err)
	}
	s.Delete(k)
	if _, ok := s.Get(k); ok {
		t.Fatal("deleted entry served")
	}
	if _, err := os.Stat(s.filename(k)); !os.IsNotExist(err) {
		t.Fatal("deleted entry file remains")
	}
}

func TestPutRejectsInvalidPlan(t *testing.T) {
	s := New(4)
	bad := testPlan("fp", "host")
	bad.Opt.Precision = ex.PrecF32 + 1
	if err := s.Put(key("fp", "host"), bad); err == nil {
		t.Fatal("plan with an unknown precision stored")
	}
}

// TestStoreConcurrency hammers one store from many goroutines; run
// under -race in CI this is the concurrency-safety proof.
func TestStoreConcurrency(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8) // capacity below the key count: eviction races too
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				fp := fmt.Sprintf("fp-%d", (g+i)%16)
				k := key(fp, "host")
				if i%7 == 0 {
					s.Delete(k)
					continue
				}
				if err := s.Put(k, testPlan(fp, "host")); err != nil {
					t.Error(err)
					return
				}
				if pl, ok := s.Get(k); ok && pl.Fingerprint != fp {
					t.Errorf("cross-key read: want %s got %s", fp, pl.Fingerprint)
					return
				}
				s.HasShape("fp-", "host", plan.CurrentVersion)
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The shape index still counts exactly the files left on disk.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".json") {
			files++
		}
	}
	if got := s.shapes[shapeName(entryName(key("fp-", "host")))]; got != files {
		t.Fatalf("shape index counts %d entry files, the directory holds %d", got, files)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("v1-3x3-4-gen-00ff"); got != "v1-3x3-4-gen-00ff" {
		t.Fatalf("safe name mangled: %s", got)
	}
	if got := sanitize("../../etc/passwd"); strings.ContainsAny(got, "/") {
		t.Fatalf("path separator survived: %s", got)
	}
}

// TestHasShapeTracksEntryFiles: the shape index holds the entry files
// found at Open and follows this store's own writes and removals,
// including a corrupt entry Get deletes. Temp files, other machines
// and other versions do not count, and a memory-only store has none.
func TestHasShapeTracksEntryFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"v1-4x4-9-gen-0123456789abcdef.host.v1.json",
		"v1-4x4-9-gen-fedcba9876543210.host.v1.json",
		"v1-8x8-20-sym-0123456789abcdef.bdw.v1.json",
		".plan-123.tmp",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"version": 1, "form`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	has := func(shape, mach string) bool { return s.HasShape(shape, mach, plan.CurrentVersion) }
	if !has("v1-4x4-9-gen-", "host") || !has("v1-8x8-20-sym-", "bdw") {
		t.Fatal("entry files present at Open not indexed")
	}
	if has("v1-4x4-9-gen-", "bdw") || has("v1-8x8-20-sym-", "host") || s.HasShape("v1-4x4-9-gen-", "host", 9) {
		t.Fatal("a shape matched another machine or version")
	}

	// Two files share the first shape: it stays until both are gone.
	s.Delete(key("v1-4x4-9-gen-0123456789abcdef", "host"))
	if !has("v1-4x4-9-gen-", "host") {
		t.Fatal("shape dropped while a file of it remains")
	}
	if _, ok := s.Get(key("v1-4x4-9-gen-fedcba9876543210", "host")); ok {
		t.Fatal("corrupt entry served")
	}
	if has("v1-4x4-9-gen-", "host") {
		t.Fatal("shape kept after its last file was removed")
	}

	// Writes add shapes; deleting a key twice removes it once.
	k := key("v2-4x4-9-gen-0123456789abcdef", "host")
	if err := s.Put(k, testPlan(k.Fingerprint, "host")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, testPlan(k.Fingerprint, "host")); err != nil {
		t.Fatal(err)
	}
	if !has("v2-4x4-9-gen-", "host") {
		t.Fatal("a written entry is not indexed")
	}
	s.Delete(k)
	s.Delete(k)
	if has("v2-4x4-9-gen-", "host") {
		t.Fatal("a deleted entry is still indexed")
	}

	if New(4).HasShape("v1-4x4-9-gen-", "host", plan.CurrentVersion) {
		t.Fatal("a memory-only store reported a file")
	}
}
