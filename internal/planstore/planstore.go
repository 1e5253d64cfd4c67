// Package planstore persists execution plans (internal/plan) across
// multiplies, processes and hosts: a concurrency-safe in-memory LRU
// front backed, optionally, by an on-disk directory of one JSON file
// per plan. Entries are keyed by (matrix fingerprint, machine
// codename, plan version), so a store never hands back a plan for a
// different structure, a different platform model, or a different IR
// schema.
//
// The disk layout is deliberately boring — one self-describing JSON
// file per key, named after the key — so plans can be inspected with
// cat, diffed in review, and shipped between hosts with cp (see
// docs/guide/plans.md). Writes are atomic (temp file + rename in the
// same directory), so a crash mid-write never leaves a torn entry;
// corrupt or stale files are skipped and deleted on read, and the
// caller simply re-tunes.
package planstore

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/sparsekit/spmvtuner/internal/plan"
)

// Key identifies one stored plan.
type Key struct {
	// Fingerprint is the matrix's structural identity
	// (matrix.Fingerprint).
	Fingerprint string
	// Machine is the platform codename the plan was decided on.
	Machine string
	// Version is the plan IR schema version (plan.CurrentVersion).
	Version int
}

// DefaultCapacity bounds the in-memory front when the caller does not
// choose: enough for a large serving working set of distinct matrices
// without letting an unbounded stream retain plans forever.
const DefaultCapacity = 256

// Store is the plan cache. All methods are safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	capacity int
	dir      string                // "" = memory-only; immutable after New
	entries  map[Key]*list.Element // guarded by mu
	lru      *list.List            // guarded by mu; front = most recently used
	// dirty holds entries not yet durable on disk; writeBack always
	// persists the latest dirty value and clears the marker only when
	// it is still the value it wrote, so racing Puts of one key can
	// never leave an older plan on disk with the marker gone.
	dirty  map[Key]plan.Plan // guarded by mu
	closed bool              // guarded by mu
	// shapes counts the entry files in dir per shape name (shapeName):
	// indexed once at Open, then kept by the writes and removals of
	// this store (under wmu, then mu).
	shapes map[string]int // guarded by mu

	// wmu serializes disk writes: renames from concurrent Puts of the
	// same key must not land out of order. Held outside mu.
	wmu sync.Mutex
}

// entry is one LRU slot.
type entry struct {
	key Key
	pl  plan.Plan
}

// New returns a memory-only store. capacity <= 0 selects
// DefaultCapacity.
func New(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity: capacity,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
		dirty:    make(map[Key]plan.Plan),
		shapes:   make(map[string]int),
	}
}

// Open returns a store persisted under dir (created if missing), with
// a memory LRU front of the given capacity (<= 0: DefaultCapacity).
// Evicting from the memory front never deletes the on-disk entry. Open
// lists dir once to index its entry files by shape (HasShape).
func Open(dir string, capacity int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("planstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	s := New(capacity)
	s.dir = dir
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range ents {
		if name := e.Name(); e.Type().IsRegular() && strings.HasSuffix(name, ".json") && !strings.HasPrefix(name, ".") {
			s.shapes[shapeName(name)]++
		}
	}
	return s, nil
}

// shapeName cuts the hash, the last '-'-separated field of the
// fingerprint, out of an entry file name:
// "v1-30000x30000-229980-gen-98d6d2f4f0599b84.host.v1.json" becomes
// "v1-30000x30000-229980-gen-.host.v1.json".
func shapeName(name string) string {
	fp, rest, _ := strings.Cut(name, ".")
	return fp[:strings.LastIndexByte(fp, '-')+1] + "." + rest
}

// HasShape reports whether the directory holds an entry file for the
// machine and version whose fingerprint starts with shape and ends in
// one more '-'-separated field, the hash. It answers from an index
// built at Open, so files that another process adds afterwards are
// not seen. Callers use it to look a plan up under an older
// fingerprint form only when one of the right shape is on disk, so
// the older hash is never computed for nothing. A memory-only store
// holds no files.
func (s *Store) HasShape(shape, machine string, version int) bool {
	if s.dir == "" {
		return false
	}
	name := shapeName(entryName(Key{Fingerprint: shape, Machine: machine, Version: version}))
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shapes[name] > 0
}

// removeFile deletes the key's entry file and drops it from the shape
// index. Callers hold wmu.
func (s *Store) removeFile(k Key) {
	if os.Remove(s.filename(k)) == nil {
		s.mu.Lock()
		if n := shapeName(entryName(k)); s.shapes[n] > 0 {
			s.shapes[n]--
		}
		s.mu.Unlock()
	}
}

// Dir returns the backing directory, or "" for a memory-only store.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of plans in the memory front.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// filename maps a key to its entry file. Every component is already
// filename-safe by construction (fingerprints and codenames are
// alphanumeric with - and x), but sanitize defensively anyway so a
// hostile codename cannot escape the store directory.
func (s *Store) filename(k Key) string {
	return filepath.Join(s.dir, entryName(k))
}

// entryName is the key's entry file name within the store directory.
func entryName(k Key) string {
	return fmt.Sprintf("%s.%s.v%d.json", sanitize(k.Fingerprint), sanitize(k.Machine), k.Version)
}

// sanitize keeps [A-Za-z0-9._-] and maps everything else to '_'.
func sanitize(sv string) string {
	out := []byte(sv)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// Get looks the key up: memory front first, then disk. A disk hit is
// promoted into the memory front. Corrupt, unreadable or
// key-mismatched disk entries are deleted and reported as a miss —
// the caller re-tunes and the subsequent Put heals the store.
func (s *Store) Get(k Key) (plan.Plan, bool) {
	s.mu.Lock()
	if el, ok := s.entries[k]; ok {
		s.lru.MoveToFront(el)
		pl := el.Value.(*entry).pl
		s.mu.Unlock()
		return pl, true
	}
	dir := s.dir
	s.mu.Unlock()
	if dir == "" {
		return plan.Plan{}, false
	}

	// Disk path, outside the lock: file I/O must not stall concurrent
	// memory hits.
	path := s.filename(k)
	data, err := os.ReadFile(path)
	if err != nil {
		return plan.Plan{}, false
	}
	pl, err := plan.Decode(data)
	if err != nil || pl.Fingerprint != k.Fingerprint || pl.Version != k.Version || pl.Machine != k.Machine {
		// Torn, hand-edited or misnamed: skip and retune. Removal
		// synchronizes with writers (wmu) and re-checks the memory
		// front first — a concurrent Put may have just renamed a fresh
		// valid entry over the corrupt bytes this read saw, and that
		// entry must survive.
		s.wmu.Lock()
		s.mu.Lock()
		_, resurfaced := s.entries[k]
		s.mu.Unlock()
		if !resurfaced {
			s.removeFile(k)
		}
		s.wmu.Unlock()
		return plan.Plan{}, false
	}
	s.mu.Lock()
	// Promote only if still absent: a Put that completed while this
	// disk read was in flight holds a newer value that must not be
	// clobbered with the older on-disk one.
	if _, ok := s.entries[k]; !ok {
		s.insertLocked(k, pl)
	}
	s.mu.Unlock()
	return pl, true
}

// Put stores the plan under the key: into the memory front always,
// and through to disk (atomically) when the store is persistent. A
// failed disk write keeps the entry dirty for Flush to retry, and is
// returned so callers that require durability can notice.
func (s *Store) Put(k Key, pl plan.Plan) error {
	if err := pl.Valid(); err != nil {
		return err
	}
	s.mu.Lock()
	s.insertLocked(k, pl)
	if s.dir == "" {
		s.mu.Unlock()
		return nil
	}
	s.dirty[k] = pl
	s.mu.Unlock()
	return s.writeBack(k)
}

// insertLocked adds or refreshes the memory entry, evicting the least
// recently used slot beyond capacity. Callers hold s.mu.
func (s *Store) insertLocked(k Key, pl plan.Plan) {
	if el, ok := s.entries[k]; ok {
		el.Value.(*entry).pl = pl
		s.lru.MoveToFront(el)
		return
	}
	s.entries[k] = s.lru.PushFront(&entry{key: k, pl: pl})
	for s.lru.Len() > s.capacity {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*entry).key)
	}
}

// writeBack persists the key's latest dirty value atomically: encode,
// write a temp file in the store directory, rename over the final
// name. Rename within one directory is atomic on POSIX systems, so
// readers see either the old complete entry or the new complete
// entry, never a torn one. Writers are serialized (wmu) and always
// read the value to write from the dirty map, so when Puts of one key
// race, the last value inserted is the last one renamed into place; a
// writer that finds the marker already cleared has nothing to do.
func (s *Store) writeBack(k Key) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	pl, ok := s.dirty[k]
	s.mu.Unlock()
	if !ok {
		return nil // a concurrent writeBack already persisted it
	}
	data, err := plan.Encode(pl)
	if err != nil {
		return err
	}
	path := s.filename(k)
	tmp, err := os.CreateTemp(s.dir, ".plan-*.tmp")
	if err != nil {
		return fmt.Errorf("planstore: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	_, statErr := os.Lstat(path)
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("planstore: %w", werr)
	}
	s.mu.Lock()
	if statErr != nil {
		s.shapes[shapeName(entryName(k))]++
	}
	if cur, ok := s.dirty[k]; ok && cur == pl {
		delete(s.dirty, k)
	}
	s.mu.Unlock()
	return nil
}

// Delete removes the key from the memory front and, for persistent
// stores, from disk. Missing entries are a no-op. The file removal
// holds the writer lock: clearing the dirty marker first and then
// removing under wmu guarantees an in-flight writeBack either renames
// before the removal (and the file still ends up gone) or observes
// the cleared marker and writes nothing — a deleted entry can never
// be resurrected on disk.
func (s *Store) Delete(k Key) {
	s.mu.Lock()
	if el, ok := s.entries[k]; ok {
		s.lru.Remove(el)
		delete(s.entries, k)
	}
	delete(s.dirty, k)
	dir := s.dir
	s.mu.Unlock()
	if dir != "" {
		s.wmu.Lock()
		s.removeFile(k)
		s.wmu.Unlock()
	}
}

// Flush retries every entry whose disk write previously failed and
// returns the first error. Memory-only stores flush trivially.
func (s *Store) Flush() error {
	s.mu.Lock()
	pending := make([]Key, 0, len(s.dirty))
	for k := range s.dirty {
		pending = append(pending, k)
	}
	s.mu.Unlock()
	var first error
	for _, k := range pending {
		if err := s.writeBack(k); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close flushes and marks the store closed. It is idempotent; Get and
// Put keep working after Close (the store owns no resources beyond
// the pending writes), so a closed store degrades gracefully rather
// than failing serving traffic.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.Flush()
}
