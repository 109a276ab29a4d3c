package memo

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Entry files (one per cached result, named by the key hash) use the CRC
// frame defined in frame.go — see EncodeFrame/DecodeFrame. Reads validate
// every field — magic, version, key-vs-filename match, exact length,
// checksum — and treat any mismatch as a miss, never an error: the worst a
// corrupt entry can do is cost a re-simulation.

// Aliases for the test suite, which exercises the framing through the
// store's on-disk entry paths.
const (
	entryVersion  = frameVersion
	entryOverhead = FrameOverhead
)

// defaultLRUBytes bounds the in-memory payload cache in front of the disk
// store. Entries are small (a serialized result is a few hundred bytes), so
// this holds every sweep the harness can produce.
const defaultLRUBytes = 16 << 20

// Stats are the store's monotonic counters. Hits counts successful reads
// (memory or disk); MemHits the subset answered by the LRU without touching
// disk. CorruptEntries counts reads rejected by framing/checksum validation
// — each also counts as a miss.
type Stats struct {
	Hits           int64
	Misses         int64
	MemHits        int64
	PutEntries     int64
	PutBytes       int64
	GetBytes       int64
	CorruptEntries int64
	PutErrors      int64
}

// Store is a content-addressed result cache: an on-disk object directory
// keyed by Hash, fronted by a byte-bounded in-memory LRU. All methods are
// safe for concurrent use. A Store with no directory (InMemory) keeps
// entries only in the LRU.
type Store struct {
	dir string // "" means memory-only

	mu       sync.Mutex
	lru      *list.List // front = most recent; values are *lruEntry
	byKey    map[Hash]*list.Element
	lruBytes int
	maxBytes int

	hits, misses, memHits        atomic.Int64
	putEntries, putBytes         atomic.Int64
	getBytes, corrupt, putErrors atomic.Int64
}

type lruEntry struct {
	key     Hash
	payload []byte
}

// Open creates (if needed) and probes the cache directory, returning a
// store backed by it. It fails fast — a path that cannot be created or
// written is an immediate, actionable error, not a latent one at first Put.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("memo: empty cache directory (use InMemory for a memory-only store)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memo: cache dir %s: %w", dir, err)
	}
	// Write-probe: creating the directory can succeed while writes fail
	// (permissions, read-only mounts, full disks).
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("memo: cache dir %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	probe.Close()
	os.Remove(name)
	return newStore(dir), nil
}

// InMemory returns a store with no disk backing: entries live only in the
// LRU and vanish with the process. The serve mode uses it when no cache
// directory is configured.
func InMemory() *Store { return newStore("") }

func newStore(dir string) *Store {
	return &Store{
		dir:      dir,
		lru:      list.New(),
		byKey:    make(map[Hash]*list.Element),
		maxBytes: defaultLRUBytes,
	}
}

// Dir returns the backing directory ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

// SetLRUBytes resizes the in-memory cache bound (minimum 0: every read goes
// to disk). Used by tests to force eviction.
func (s *Store) SetLRUBytes(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxBytes = n
	s.evictLocked()
}

// path returns the entry file for a hash, sharded by the first hex byte so
// directories stay small.
func (s *Store) path(h Hash) string {
	hx := h.Hex()
	return filepath.Join(s.dir, hx[:2], hx+".m1")
}

// Get returns the payload stored under h, or ok=false on a miss. Corrupt
// entries — truncated, bit-flipped, misframed, misfiled — are misses.
func (s *Store) Get(h Hash) ([]byte, bool) {
	if payload, ok := s.lruGet(h); ok {
		s.memHits.Add(1)
		s.hits.Add(1)
		return payload, true
	}
	if s.dir == "" {
		s.misses.Add(1)
		return nil, false
	}
	raw, err := os.ReadFile(s.path(h))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, ok := DecodeFrame(raw, h)
	if !ok {
		s.corrupt.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.getBytes.Add(int64(len(raw)))
	s.lruPut(h, payload)
	return payload, true
}

// Put stores payload under h. Writes are atomic (temp file + rename), so a
// crash mid-write leaves either the old entry or a temp file the reader
// never looks at — never a half-written entry under the real name. Write
// failures are counted and reported but leave the store usable: a cache
// that cannot persist degrades to memory-only cost, not wrong results.
func (s *Store) Put(h Hash, payload []byte) error {
	s.lruPut(h, payload)
	s.putEntries.Add(1)
	s.putBytes.Add(int64(len(payload)))
	if s.dir == "" {
		return nil
	}
	entry := EncodeFrame(h, payload)
	path := s.path(h)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("memo: put %s: %w", h.Hex()[:12], err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("memo: put %s: %w", h.Hex()[:12], err)
	}
	if _, err := tmp.Write(entry); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		s.putErrors.Add(1)
		return fmt.Errorf("memo: put %s: %w", h.Hex()[:12], err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.putErrors.Add(1)
		return fmt.Errorf("memo: put %s: %w", h.Hex()[:12], err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		s.putErrors.Add(1)
		return fmt.Errorf("memo: put %s: %w", h.Hex()[:12], err)
	}
	return nil
}

// Delete drops the entry stored under h from memory and disk; it counts
// nothing.
func (s *Store) Delete(h Hash) {
	s.mu.Lock()
	if el, ok := s.byKey[h]; ok {
		s.lru.Remove(el)
		delete(s.byKey, h)
		s.lruBytes -= len(el.Value.(*lruEntry).payload)
	}
	s.mu.Unlock()
	if s.dir != "" {
		os.Remove(s.path(h))
	}
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		MemHits:        s.memHits.Load(),
		PutEntries:     s.putEntries.Load(),
		PutBytes:       s.putBytes.Load(),
		GetBytes:       s.getBytes.Load(),
		CorruptEntries: s.corrupt.Load(),
		PutErrors:      s.putErrors.Load(),
	}
}

func (s *Store) lruGet(h Hash) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[h]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*lruEntry).payload, true
}

func (s *Store) lruPut(h Hash, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[h]; ok {
		old := el.Value.(*lruEntry)
		s.lruBytes += len(payload) - len(old.payload)
		old.payload = payload
		s.lru.MoveToFront(el)
	} else {
		s.byKey[h] = s.lru.PushFront(&lruEntry{key: h, payload: payload})
		s.lruBytes += len(payload)
	}
	s.evictLocked()
}

func (s *Store) evictLocked() {
	for s.lruBytes > s.maxBytes && s.lru.Len() > 0 {
		el := s.lru.Back()
		e := el.Value.(*lruEntry)
		s.lru.Remove(el)
		delete(s.byKey, e.key)
		s.lruBytes -= len(e.payload)
	}
}
