package memo

import (
	"bytes"
	"os"
	"sync"
	"testing"
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
