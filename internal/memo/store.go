package memo

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// A disk store keeps one append-only log per cache directory, logName:
// records in the CRC frame of frame.go, back to back. A result is
// EncodeFrame(h, payload); a delete is a tombstone. Open reads the log once
// and indexes each key's latest valid record by offset; a hit the LRU does
// not hold is one ReadAt of its record, checked again by DecodeFrame, since
// the file may have been damaged in place after the scan. Damage of any
// kind reads as a miss, never an error: the worst it can do is cost a
// re-simulation.
//
// Several processes may append to one log. On Linux local filesystems each
// O_APPEND write lands whole; where a filesystem interleaves writes, the
// CRC rejects the torn bytes, so a read costs a miss, never a wrong hit. A
// key the index lacks re-scans the log's new tail, picking up other
// processes' appends, before it misses. One limit: a store that has indexed
// a key keeps serving it after another process deletes the key. The log is
// not compacted; it grows by re-Puts and by concurrent fills of one job.
const logName = "results.log"

// scanChunk bounds the buffer a scan reads the log through, whatever the
// log's length.
const scanChunk = 64 << 10

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

// Store is a content-addressed result cache: an on-disk log keyed by Hash,
// fronted by a byte-bounded in-memory LRU. All methods are safe for
// concurrent use. A Store with no directory (InMemory) keeps entries only
// in the LRU.
type Store struct {
	dir string   // "" means memory-only
	log *os.File // nil for memory-only stores

	mu       sync.Mutex
	lru      *list.List // front = most recent; values are *lruEntry
	byKey    map[Hash]*list.Element
	lruBytes int
	maxBytes int
	// index holds each key's latest valid record; a zero logRef marks a
	// key that only records failing their CRC name.
	index   map[Hash]logRef
	scanned int64 // log bytes the index covers

	hits, misses, memHits        atomic.Int64
	putEntries, putBytes         atomic.Int64
	getBytes, corrupt, putErrors atomic.Int64
}

type lruEntry struct {
	key     Hash
	payload []byte
}

// logRef locates one record in the log.
type logRef struct{ off, n int64 }

// Open creates (if needed) the cache directory and its log, indexes the
// log, and returns a store backed by it. It fails fast — a path that
// cannot be created or written is an immediate, actionable error, not a
// latent one at first Put. Entry files of the older one-file-per-result
// layout are ignored, neither read nor deleted.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("memo: empty cache directory (use InMemory for a memory-only store)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memo: cache dir %s: %w", dir, err)
	}
	// Opening the log for append is the write probe: creating the directory
	// can succeed while writes fail (permissions, read-only mounts).
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("memo: cache dir %s is not writable: %w", dir, err)
	}
	s := newStore(dir)
	s.log = f
	s.index = make(map[Hash]logRef)
	s.scanLocked() // s is not shared yet
	return s, nil
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

// Close releases a disk store's log; the store must not be used after it.
// A store that is never closed releases its descriptor when it is
// collected, through os.File's own cleanup.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// SetLRUBytes resizes the in-memory cache bound (minimum 0: every read goes
// to disk). Used by tests to force eviction.
func (s *Store) SetLRUBytes(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxBytes = n
	s.evictLocked()
}

// Get returns the payload stored under h, or ok=false on a miss. Damaged
// records — truncated, bit-flipped, misframed, misfiled — are misses.
func (s *Store) Get(h Hash) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.byKey[h]; ok {
		s.lru.MoveToFront(el)
		payload := el.Value.(*lruEntry).payload
		s.mu.Unlock()
		s.memHits.Add(1)
		s.hits.Add(1)
		return payload, true
	}
	ref, named := s.index[h]
	if ref.n == 0 && s.log != nil {
		s.scanLocked()
		ref, named = s.index[h]
	}
	s.mu.Unlock()
	if ref.n == 0 {
		if named {
			s.corrupt.Add(1)
		}
		s.misses.Add(1)
		return nil, false
	}
	raw := make([]byte, ref.n)
	n, _ := s.log.ReadAt(raw, ref.off)
	payload, ok := checkFrame(raw[:n], h) // raw is ours: no copy
	if !ok {
		// Damaged in place since the scan. Marking the key damaged makes
		// the next Get re-scan, which finds a later Put of it.
		s.mu.Lock()
		if s.index[h] == ref {
			s.index[h] = logRef{}
		}
		s.mu.Unlock()
		s.corrupt.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.getBytes.Add(ref.n)
	s.lruPut(h, payload)
	return payload, true
}

// Put stores payload under h. A disk store appends the frame to the log
// with one unbuffered write, so a process that exits without Close loses
// nothing. The entry stays visible to this store's Get (from the LRU, or
// once evicted through a re-scan of the log's tail) and to every store
// opened later. Write failures are counted and reported but leave the
// store usable: a cache that cannot persist degrades to memory-only cost,
// not wrong results.
func (s *Store) Put(h Hash, payload []byte) error {
	s.lruPut(h, payload)
	s.putEntries.Add(1)
	s.putBytes.Add(int64(len(payload)))
	if s.log == nil {
		return nil
	}
	if _, err := s.log.Write(EncodeFrame(h, payload)); err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("memo: put %s: %w", h.Hex()[:12], err)
	}
	return nil
}

// Delete drops the entry stored under h from memory and, for a disk store,
// from the index, and appends a tombstone, so stores opened later miss it
// too; a later Put of h hits again. It counts nothing, and a tombstone that
// fails to append leaves the entry only for stores opened later.
func (s *Store) Delete(h Hash) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[h]; ok {
		s.lru.Remove(el)
		delete(s.byKey, h)
		s.lruBytes -= len(el.Value.(*lruEntry).payload)
	}
	if s.log == nil {
		return
	}
	delete(s.index, h)
	_, _ = s.log.Write(tombstone(h))
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

// scanLocked indexes the records appended to the log since the last scan;
// s.mu must be held. A record counts once its magic, version, length and
// CRC check out. Bytes that do not begin one are skipped to the next frame
// magic, so damage never hides an intact record after it, and a record
// whose header parses but whose CRC fails marks its key damaged. An
// incomplete record at the log's end is an append in progress, not damage:
// the scan stops at it, and the next scan retries from it.
func (s *Store) scanLocked() {
	fi, err := s.log.Stat()
	if err != nil || fi.Size() <= s.scanned {
		return
	}
	end := fi.Size()
	r := logReader{f: s.log, end: end, buf: make([]byte, min(scanChunk, end-s.scanned))}
	p := s.scanned
	for p < end {
		hdr := r.at(p, headerLen)
		tomb, key, size, ok := parseHeader(hdr)
		whole := ok && size <= end-p
		if whole {
			if r.crcOK(p, size) {
				if tomb {
					delete(s.index, key)
				} else {
					s.index[key] = logRef{p, size}
				}
				p += size
				continue
			}
			if _, ok := s.index[key]; !ok {
				s.index[key] = logRef{}
			}
		}
		if next := r.nextMagic(p + 1); next >= 0 {
			p = next
			continue
		}
		if !whole && (ok || len(hdr) < headerLen && startsRecord(hdr)) {
			break // an append in progress
		}
		// No magic begins before the last 7 bytes; one may still begin
		// there once more bytes land.
		p = max(p+1, end-int64(len(frameMagic)-1))
		break
	}
	s.scanned = p
}

// parseHeader reads the record header at the start of b. ok is false
// unless b holds a whole header with a record magic, the frame version and,
// for a tombstone, an empty payload; size is the whole record's length.
func parseHeader(b []byte) (tomb bool, key Hash, size int64, ok bool) {
	if len(b) < headerLen || binary.LittleEndian.Uint16(b[8:10]) != frameVersion {
		return false, key, 0, false
	}
	switch [8]byte(b[:8]) {
	case frameMagic:
	case tombMagic:
		tomb = true
	default:
		return false, key, 0, false
	}
	plen := binary.LittleEndian.Uint32(b[42:46])
	if tomb && plen != 0 {
		return false, key, 0, false
	}
	return tomb, Hash(b[10:42]), FrameOverhead + int64(plen), true
}

// startsRecord reports whether b, shorter than a header, can begin one.
func startsRecord(b []byte) bool {
	m := b[:min(len(b), len(frameMagic))]
	return bytes.HasPrefix(frameMagic[:], m) || bytes.HasPrefix(tombMagic[:], m)
}

// logReader reads the log's first end bytes through one bounded buffer.
type logReader struct {
	f   *os.File
	end int64
	buf []byte
	off int64 // log offset of buf[0]
	n   int   // bytes of buf holding the log
}

// at returns the log's bytes from off: n of them, or fewer where the
// buffer or the log ends.
func (r *logReader) at(off int64, n int) []byte {
	n = int(min(int64(min(n, len(r.buf))), r.end-off))
	if off < r.off || off+int64(n) > r.off+int64(r.n) {
		m, _ := r.f.ReadAt(r.buf[:min(int64(len(r.buf)), r.end-off)], off)
		r.off, r.n = off, m
		n = min(n, m)
	}
	i := int(off - r.off)
	return r.buf[i : i+n]
}

// crcOK reports whether the size-byte record at off ends in the CRC of the
// bytes before its checksum.
func (r *logReader) crcOK(off, size int64) bool {
	var crc uint32
	for done := int64(0); done < size-4; {
		b := r.at(off+done, int(min(size-4-done, int64(len(r.buf)))))
		if len(b) == 0 {
			return false
		}
		crc = crc32.Update(crc, crc32.IEEETable, b)
		done += int64(len(b))
	}
	t := r.at(off+size-4, 4)
	return len(t) == 4 && binary.LittleEndian.Uint32(t) == crc
}

// nextMagic returns the offset of the first record magic at or after off,
// or -1.
func (r *logReader) nextMagic(off int64) int64 {
	for {
		w := r.at(off, len(r.buf))
		i, j := bytes.Index(w, frameMagic[:]), bytes.Index(w, tombMagic[:])
		if i < 0 || 0 <= j && j < i {
			i = j
		}
		if i >= 0 {
			return off + int64(i)
		}
		if len(w) < len(frameMagic) {
			return -1
		}
		off += int64(len(w) - (len(frameMagic) - 1))
	}
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
