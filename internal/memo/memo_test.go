package memo

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestHasherInjective asserts the tagged framing keeps adjacent values from
// aliasing: ("ab","c") vs ("a","bc"), a string vs its byte content, and
// numeric values of equal bit patterns under different types all hash apart.
func TestHasherInjective(t *testing.T) {
	sum := func(build func(*Hasher)) Hash {
		h := New("salt")
		build(h)
		return h.Sum()
	}
	pairs := []struct {
		name string
		a, b func(*Hasher)
	}{
		{"boundary shift", func(h *Hasher) { h.Str("ab"); h.Str("c") }, func(h *Hasher) { h.Str("a"); h.Str("bc") }},
		{"str vs bytes", func(h *Hasher) { h.Str("abc") }, func(h *Hasher) { h.Bytes([]byte("abc")) }},
		{"u64 vs i64", func(h *Hasher) { h.U64(7) }, func(h *Hasher) { h.I64(7) }},
		{"f64 vs u64 bits", func(h *Hasher) { h.F64(0) }, func(h *Hasher) { h.U64(0) }},
		{"bool order", func(h *Hasher) { h.Bool(true); h.Bool(false) }, func(h *Hasher) { h.Bool(false); h.Bool(true) }},
	}
	for _, p := range pairs {
		if sum(p.a) == sum(p.b) {
			t.Errorf("%s: hashes collide", p.name)
		}
	}
	if New("salt-a").Sum() == New("salt-b").Sum() {
		t.Error("different salts hash equal")
	}
	if sum(func(h *Hasher) { h.Str("x") }) != sum(func(h *Hasher) { h.Str("x") }) {
		t.Error("identical inputs hash differently")
	}
}

// TestHasherClone pins Clone: a clone continues from its original's state,
// as a fresh Hasher folding the same fields would; the two then fold
// independently; and concurrent clones of one shared prefix agree.
func TestHasherClone(t *testing.T) {
	fields := func(h *Hasher) {
		h.Str("engine")
		h.Bytes([]byte{1, 2, 3})
		h.U64(7)
		h.I64(-7)
		h.F64(0.125)
		h.Bool(true)
	}
	prefix := New("salt")
	prefix.Str("schema")
	before := prefix.Sum()

	c := prefix.Clone()
	fields(c)
	fresh := New("salt")
	fresh.Str("schema")
	fields(fresh)
	if c.Sum() != fresh.Sum() {
		t.Error("a clone that folds fields sums differently from a fresh hasher folding the same fields")
	}
	if prefix.Sum() != before {
		t.Error("folding into a clone changed the original's Sum")
	}
	if prefix.Clone().Sum() != before {
		t.Error("an unfolded clone sums differently from its original")
	}
	prefix.Str("later")
	if c.Sum() != fresh.Sum() {
		t.Error("folding into the original changed an earlier clone's Sum")
	}

	shared := New("salt")
	shared.Str("schema")
	const cloners = 8
	got := make([]Hash, cloners)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			h := shared.Clone()
			fields(h)
			got[i] = h.Sum()
		}()
	}
	close(start)
	wg.Wait()
	for i, g := range got {
		if g != fresh.Sum() {
			t.Errorf("concurrent clone %d sums %s, want %s", i, g.Hex()[:12], fresh.Sum().Hex()[:12])
		}
	}
}

func TestHashHex(t *testing.T) {
	h := New("v").Sum()
	hx := h.Hex()
	if len(hx) != 64 {
		t.Fatalf("hex length %d, want 64", len(hx))
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := New("k1").Sum()
	payload := []byte(`{"result":42}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("got (%q, %v), want (%q, true)", got, ok, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.PutEntries != 1 {
		t.Errorf("stats %+v, want 1 hit / 1 miss / 1 put", st)
	}
}

// TestStorePersistsAcrossReopen asserts entries written by one store are
// readable by a fresh store over the same directory — the warm-start path.
func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := New("persist").Sum()
	if err := s1.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok || string(got) != "payload" {
		t.Fatalf("reopened store missed: (%q, %v)", got, ok)
	}
	if s2.Stats().MemHits != 0 {
		t.Error("reopened store claims a memory hit for a disk read")
	}
}

// TestStoreDelete asserts a deleted entry is gone from memory and disk,
// also for a fresh store over the same directory, and that its neighbour
// stays.
func TestStoreDelete(t *testing.T) {
	dir := t.TempDir()
	disk, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gone, kept := New("gone").Sum(), New("kept").Sum()
	for _, s := range []*Store{InMemory(), disk} {
		for _, k := range []Hash{gone, kept} {
			if err := s.Put(k, []byte("payload")); err != nil {
				t.Fatal(err)
			}
		}
		s.Delete(gone)
		if _, ok := s.Get(gone); ok {
			t.Errorf("store %q: deleted entry still read", s.Dir())
		}
		if _, ok := s.Get(kept); !ok {
			t.Errorf("store %q: Delete dropped another entry", s.Dir())
		}
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reopened.Get(gone); ok {
		t.Error("deleted entry still on disk")
	}
}

func TestInMemoryStore(t *testing.T) {
	s := InMemory()
	key := New("mem").Sum()
	if err := s.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok {
		t.Error("in-memory store missed its own entry")
	}
	if s.Dir() != "" {
		t.Errorf("in-memory store has dir %q", s.Dir())
	}
}

func TestOpenFailsFast(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("Open(\"\") succeeded")
	}
	// A path under a file cannot be created as a directory.
	dir := t.TempDir()
	blocker := dir + "/file"
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(New("b").Sum(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blocker, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(blocker + "/sub"); err == nil {
		t.Error("Open under a regular file succeeded")
	}
}

// TestStoreLRUEviction asserts the byte cap evicts oldest-first and that
// evicted entries still hit from disk.
func TestStoreLRUEviction(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetLRUBytes(64)
	k1, k2, k3 := New("1").Sum(), New("2").Sum(), New("3").Sum()
	pay := bytes.Repeat([]byte("a"), 30)
	for _, k := range []Hash{k1, k2, k3} { // 90 bytes total: k1 evicts
		if err := s.Put(k, pay); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats().MemHits
	if _, ok := s.Get(k3); !ok {
		t.Fatal("newest entry missed")
	}
	if s.Stats().MemHits != before+1 {
		t.Error("newest entry not served from memory")
	}
	if _, ok := s.Get(k1); !ok {
		t.Fatal("evicted entry missed from disk")
	}
	if s.Stats().MemHits != before+1 {
		t.Error("evicted entry claimed a memory hit")
	}

	mem := InMemory()
	mem.SetLRUBytes(64)
	for _, k := range []Hash{k1, k2, k3} {
		if err := mem.Put(k, pay); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := mem.Get(k1); ok {
		t.Error("memory-only store hit an evicted entry")
	}
}

// TestTombstoneSurvivesReopen pins Delete on a disk store: the tombstone
// hides the key from stores opened later, without counting corruption,
// while its neighbour stays; a Put after the Delete hits again. A
// tombstone never decodes as a result frame, and no bit flip turns a
// result record into a tombstone or a tombstone into a result: each
// damaged record simply stops counting.
func TestTombstoneSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	gone, kept := New("gone").Sum(), New("kept").Sum()
	for _, k := range []Hash{gone, kept} {
		if err := s.Put(k, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete(gone)
	r := mustOpen(t, dir)
	if _, ok := r.Get(gone); ok {
		t.Error("a store opened after Delete hit the deleted key")
	}
	if got, ok := r.Get(kept); !ok || string(got) != "payload" {
		t.Errorf("Delete dropped its neighbour: (%q, %v)", got, ok)
	}
	if st := r.Stats(); st.CorruptEntries != 0 {
		t.Errorf("a tombstone counted %d corrupt entries", st.CorruptEntries)
	}

	s.SetLRUBytes(0)
	if err := s.Put(gone, []byte("again")); err != nil {
		t.Fatal(err)
	}
	for i, st := range []*Store{s, r, mustOpen(t, dir)} {
		if got, ok := st.Get(gone); !ok || string(got) != "again" {
			t.Errorf("store %d reads a key re-Put after Delete as (%q, %v)", i, got, ok)
		}
	}

	tomb := tombstone(gone)
	if payload, ok := DecodeFrame(tomb, gone); ok {
		t.Fatalf("a tombstone decoded as a result frame: %q", payload)
	}
	older, newer := EncodeFrame(gone, []byte("older")), EncodeFrame(gone, []byte("newer"))
	for _, tc := range []struct {
		name  string
		log   []byte
		flip  []byte // the record whose bits are flipped
		after []byte // what gone reads once flip stops counting
	}{
		{"tombstone flipped", append(bytes.Clone(older), tomb...), tomb, []byte("older")},
		{"result flipped", append(bytes.Clone(older), newer...), newer, []byte("older")},
	} {
		at := len(tc.log) - len(tc.flip)
		for i := 0; i < 8*len(tc.flip); i++ {
			mut := bytes.Clone(tc.log)
			mut[at+i/8] ^= 1 << (i % 8)
			d := t.TempDir()
			writeLog(t, d, mut)
			if got, ok := mustOpen(t, d).Get(gone); !ok || !bytes.Equal(got, tc.after) {
				t.Fatalf("%s at bit %d: reads (%q, %v), want %q", tc.name, i, got, ok, tc.after)
			}
		}
	}
}

// TestConcurrentStoresAppend has two stores on one directory Put from
// several goroutines at once, partly the same keys (two processes filling
// one job), and requires a third store opened afterwards to hit every key
// with its payload.
func TestConcurrentStoresAppend(t *testing.T) {
	dir := t.TempDir()
	writers := []*Store{mustOpen(t, dir), mustOpen(t, dir)}
	const goroutines, keys = 4, 60
	payload := func(k int) []byte { return bytes.Repeat([]byte{byte('a' + k%26)}, 200+k) }
	key := func(k int) Hash { h := New("concurrent"); h.I64(int64(k)); return h.Sum() }
	var wg sync.WaitGroup
	for w, s := range writers {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := g; k < keys; k += goroutines {
					if k%3 != 0 && k%2 != w { // every third key is written by both stores
						continue
					}
					if err := s.Put(key(k), payload(k)); err != nil {
						t.Error(err)
					}
					s.Get(key((k + 7) % keys)) // misses re-scan the tail while others append
				}
			}()
		}
	}
	wg.Wait()
	r := mustOpen(t, dir)
	for k := 0; k < keys; k++ {
		if got, ok := r.Get(key(k)); !ok || !bytes.Equal(got, payload(k)) {
			t.Errorf("key %d reads (%d bytes, %v) after concurrent appends", k, len(got), ok)
		}
	}
	if st := r.Stats(); st.CorruptEntries != 0 {
		t.Errorf("%d corrupt entries after concurrent appends", st.CorruptEntries)
	}
}

// TestOldEntryFilesIgnored opens a directory holding only entry files of
// the one-file-per-result layout: every key misses, and the files stay.
func TestOldEntryFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, v := range victims {
		hx := v.key.Hex()
		path := filepath.Join(dir, hx[:2], hx+".m1")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, EncodeFrame(v.key, v.payload), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	hit, st := readVictims(t, dir, "old entry files")
	for i, ok := range hit {
		if ok {
			t.Errorf("victim %d hit an old entry file", i)
		}
	}
	if st.CorruptEntries != 0 {
		t.Errorf("old entry files counted %d corrupt entries", st.CorruptEntries)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("old entry file: %v", err)
		}
	}
}

// TestUnclosedStoresReleaseDescriptors opens 5,000 stores on one directory
// and closes none, as a caller that re-opens its store per sweep does:
// once they are collected, the process holds about as many descriptors as
// before.
func TestUnclosedStoresReleaseDescriptors(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(fds)
	}
	dir := t.TempDir()
	if err := mustOpen(t, dir).Put(New("k").Sum(), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	before := openFDs()
	for i := 0; i < 5000; i++ {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(New("k").Sum()); !ok {
			t.Fatal("stored key missed")
		}
	}
	// os.File closes a collected descriptor from a finalizer, which runs
	// after the collection that finds it: collect until the count settles.
	const slack = 64
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := openFDs()
		if n <= before+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d descriptors open after collecting 5000 unclosed stores, %d before", n, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
