package memo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// record is one record's place in a log: its offset and length.
type record struct{ off, n int }

// logRecords walks a log whose records are all intact.
func logRecords(t *testing.T, raw []byte) []record {
	t.Helper()
	var recs []record
	for off := 0; off < len(raw); {
		if len(raw)-off < FrameOverhead {
			t.Fatalf("log ends in a %d-byte fragment at %d", len(raw)-off, off)
		}
		n := FrameOverhead + int(binary.LittleEndian.Uint32(raw[off+42:]))
		recs = append(recs, record{off, n})
		off += n
	}
	return recs
}

// readLog returns the bytes of dir's log.
func readLog(t *testing.T, dir string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// writeLog replaces dir's log with raw.
func writeLog(t *testing.T, dir string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, logName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// victims are three keys with distinct payloads, written in this order.
var victims = []struct {
	key     Hash
	payload []byte
}{
	{New("victim-0").Sum(), []byte(`{"engine":{"TotalNS":12345},"numa":{}}`)},
	{New("victim-1").Sum(), []byte(`{"engine":{"TotalNS":99},"numa":{"Model":"x"}}`)},
	{New("victim-2").Sum(), []byte(`{"numa":{"Model":"event","GBps":1.5}}`)},
}

// threeRecordLog returns a log holding the victims' records, first to
// last, and each record's place in it.
func threeRecordLog(t *testing.T) ([]byte, []record) {
	t.Helper()
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for _, v := range victims {
		if err := s.Put(v.key, v.payload); err != nil {
			t.Fatal(err)
		}
	}
	raw := readLog(t, dir)
	recs := logRecords(t, raw)
	if len(recs) != len(victims) {
		t.Fatalf("%d records in the log, want %d", len(recs), len(victims))
	}
	return raw, recs
}

// readVictims opens a fresh store on dir, Gets every victim and reports
// which hit, failing on a hit with the wrong payload.
func readVictims(t *testing.T, dir, what string) ([]bool, Stats) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return getVictims(t, s, what)
}

// getVictims Gets every victim from s and reports which hit, failing on a
// hit with the wrong payload.
func getVictims(t *testing.T, s *Store, what string) ([]bool, Stats) {
	t.Helper()
	hit := make([]bool, len(victims))
	for i, v := range victims {
		got, ok := s.Get(v.key)
		if ok && !bytes.Equal(got, v.payload) {
			t.Fatalf("%s: victim %d read %q, want %q", what, i, got, v.payload)
		}
		hit[i] = ok
	}
	return hit, s.Stats()
}

// appendedRecordHits Puts a new record through a store on dir whose LRU
// holds nothing, and requires it to hit in that store, found by re-scanning
// the log's tail, and in a store opened afterwards.
func appendedRecordHits(t *testing.T, dir, what string) {
	t.Helper()
	key, payload := New("appended").Sum(), []byte("appended payload")
	s := mustOpen(t, dir)
	s.SetLRUBytes(0)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	for i, st := range []*Store{s, mustOpen(t, dir)} {
		if got, ok := st.Get(key); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("%s: store %d reads a record appended after the damage as (%q, %v)", what, i, got, ok)
		}
	}
}

// TestCorruptTruncatedAtEveryOffset cuts a three-record log at every
// offset, as a crash or a read racing an append would. Records wholly
// before the cut still hit; the cut record and those after it miss, and a
// torn tail counts no corruption: it looks like an append in progress. So
// once the rest of the bytes land, the same store re-scans from the cut
// record and hits every record. A record appended after torn bytes that
// are never completed hits too.
func TestCorruptTruncatedAtEveryOffset(t *testing.T) {
	raw, recs := threeRecordLog(t)
	for cut := 0; cut <= len(raw); cut++ {
		what := fmt.Sprintf("log cut to %d/%d bytes", cut, len(raw))
		dir := t.TempDir()
		writeLog(t, dir, raw[:cut])
		s := mustOpen(t, dir)
		hit, st := getVictims(t, s, what)
		for i, r := range recs {
			if whole := r.off+r.n <= cut; hit[i] != whole {
				t.Errorf("%s: record %d hit=%v, want %v", what, i, hit[i], whole)
			}
		}
		if st.CorruptEntries != 0 {
			t.Errorf("%s: %d corrupt entries counted, want 0", what, st.CorruptEntries)
		}
		writeLog(t, dir, raw) // the append completes
		hit, st = getVictims(t, s, what+", then completed")
		for i, ok := range hit {
			if !ok {
				t.Errorf("%s, then completed: record %d missed", what, i)
			}
		}
		if st.CorruptEntries != 0 {
			t.Errorf("%s, then completed: %d corrupt entries counted, want 0", what, st.CorruptEntries)
		}

		dir = t.TempDir()
		writeLog(t, dir, raw[:cut])
		appendedRecordHits(t, dir, what)
		hit, _ = readVictims(t, dir, what+", then appended to")
		for i, r := range recs {
			if whole := r.off+r.n <= cut; hit[i] != whole {
				t.Errorf("%s, then appended to: record %d hit=%v, want %v", what, i, hit[i], whole)
			}
		}
	}
}

// TestCorruptBitFlipAtEveryByte flips each bit of every byte of each
// record of a three-record log in turn. The damaged record never hits and
// its neighbours still do, whatever length a flipped length field claims;
// a flip in the payload or checksum counts exactly one corrupt entry, and
// one in the header (magic, version, key, length) at most one.
func TestCorruptBitFlipAtEveryByte(t *testing.T) {
	raw, recs := threeRecordLog(t)
	dir := t.TempDir()
	for victim, r := range recs {
		for bit := 0; bit < 8*r.n; bit++ {
			i := bit / 8
			what := fmt.Sprintf("record %d, bit %d of byte %d/%d flipped", victim, bit%8, i, r.n)
			mut := bytes.Clone(raw)
			mut[r.off+i] ^= 1 << (bit % 8)
			writeLog(t, dir, mut)
			hit, st := readVictims(t, dir, what)
			for j := range recs {
				if want := j != victim; hit[j] != want {
					t.Errorf("%s: record %d hit=%v, want %v", what, j, hit[j], want)
				}
			}
			switch {
			case i >= headerLen && st.CorruptEntries != 1:
				t.Errorf("%s: %d corrupt entries counted, want 1", what, st.CorruptEntries)
			case st.CorruptEntries > 1:
				t.Errorf("%s: %d corrupt entries counted, want at most 1", what, st.CorruptEntries)
			}
		}
	}
}

// TestCorruptTrailingGarbage appends bytes after the last record: they
// hide no record, count no corruption, and a record appended after them
// hits.
func TestCorruptTrailingGarbage(t *testing.T) {
	raw, _ := threeRecordLog(t)
	for _, garbage := range [][]byte{
		{0xAA},
		bytes.Repeat([]byte("garbage "), 300),
		[]byte("PIF"),
		append(bytes.Clone(frameMagic[:]), 0, 0, 0xFF),
		raw[:headerLen+3], // a torn copy of the first record
	} {
		what := fmt.Sprintf("%d garbage bytes", len(garbage))
		dir := t.TempDir()
		writeLog(t, dir, append(bytes.Clone(raw), garbage...))
		hit, st := readVictims(t, dir, what)
		for i, ok := range hit {
			if !ok {
				t.Errorf("%s: record %d missed", what, i)
			}
		}
		if st.CorruptEntries != 0 {
			t.Errorf("%s: %d corrupt entries counted, want 0", what, st.CorruptEntries)
		}
		appendedRecordHits(t, dir, what)
	}
}

// TestCorruptEmptyAndShortHeader covers logs holding nothing but a
// fragment: an empty log, a run of one byte, and each prefix of a record
// header. Each opens, misses without counting corruption, and a record
// appended after the fragment hits.
func TestCorruptEmptyAndShortHeader(t *testing.T) {
	raw, _ := threeRecordLog(t)
	var logs [][]byte
	for _, n := range []int{0, 1, 7, 8, 9, FrameOverhead - 1} {
		logs = append(logs, bytes.Repeat([]byte{'P'}, n))
	}
	for n := 1; n < headerLen; n++ {
		logs = append(logs, raw[:n])
	}
	for _, fragment := range logs {
		what := fmt.Sprintf("log of %q", fragment)
		dir := t.TempDir()
		writeLog(t, dir, fragment)
		hit, st := readVictims(t, dir, what)
		for i, ok := range hit {
			if ok {
				t.Errorf("%s: record %d hit", what, i)
			}
		}
		if st.CorruptEntries != 0 {
			t.Errorf("%s: %d corrupt entries counted, want 0", what, st.CorruptEntries)
		}
		appendedRecordHits(t, dir, what)
	}
}

// TestCorruptWrongKeyFile asserts a frame bound to key A never answers key
// B: not when A's record is the log's only one, and not when A's record is
// written in place over B's after the scan indexed B there (Get checks the
// key it reads).
func TestCorruptWrongKeyFile(t *testing.T) {
	keyA, keyB := New("a").Sum(), New("b").Sum()
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Put(keyA, []byte("a-payload")); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustOpen(t, dir).Get(keyB); ok {
		t.Fatal("key B hit a log holding only key A's record")
	}

	if err := s.Put(keyB, []byte("b-payload")); err != nil { // same length as A's
		t.Fatal(err)
	}
	raw := readLog(t, dir)
	recs := logRecords(t, raw)
	reader := mustOpen(t, dir)
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt(raw[recs[0].off:recs[0].off+recs[0].n], int64(recs[1].off))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if payload, ok := reader.Get(keyB); ok {
		t.Fatalf("key B read key A's record, written over B's after the scan: %q", payload)
	}
	if st := reader.Stats(); st.CorruptEntries != 1 || st.Misses != 1 {
		t.Errorf("misfiled record: %+v, want 1 miss counted corrupt", st)
	}
	if got, ok := reader.Get(keyA); !ok || string(got) != "a-payload" {
		t.Errorf("key A reads (%q, %v)", got, ok)
	}
}

// TestCorruptVersionAndMagic rewrites the framing fields of the middle
// record with plausible wrong values (not just bit flips): future version,
// zero version, the trace format's magic, and the tombstone magic. Each
// reads as a miss, and its neighbours still hit.
func TestCorruptVersionAndMagic(t *testing.T) {
	raw, recs := threeRecordLog(t)
	cases := []struct {
		name   string
		mutate func([]byte)
	}{
		{"future version", func(b []byte) { b[8] = frameVersion + 1 }},
		{"zero version", func(b []byte) { b[8], b[9] = 0, 0 }},
		{"wrong magic", func(b []byte) { copy(b, "PIFSTRC1") }},
		{"tombstone magic", func(b []byte) { copy(b, tombMagic[:]) }},
	}
	for _, tc := range cases {
		mut := bytes.Clone(raw)
		// Recompute nothing: framing fields are inside the checksummed
		// region, so even a "self-consistent" rewrite fails one gate or the
		// other.
		tc.mutate(mut[recs[1].off:])
		dir := t.TempDir()
		writeLog(t, dir, mut)
		hit, _ := readVictims(t, dir, tc.name)
		if !hit[0] || hit[1] || !hit[2] {
			t.Errorf("%s: hits %v, want only the neighbours", tc.name, hit)
		}
	}
}

// TestCorruptEntryIsRecoverable asserts a damaged record degrades to a
// miss that a later Put of its key repairs, for this store and for stores
// opened later.
func TestCorruptEntryIsRecoverable(t *testing.T) {
	raw, recs := threeRecordLog(t)
	mut := bytes.Clone(raw)
	mut[recs[1].off+headerLen] ^= 1 // the payload's first byte
	dir := t.TempDir()
	writeLog(t, dir, mut)
	s := mustOpen(t, dir)
	s.SetLRUBytes(0)
	v := victims[1]
	if _, ok := s.Get(v.key); ok {
		t.Fatal("damaged record hit")
	}
	if st := s.Stats(); st.CorruptEntries != 1 {
		t.Fatalf("%d corrupt entries counted, want 1", st.CorruptEntries)
	}
	if err := s.Put(v.key, v.payload); err != nil {
		t.Fatal(err)
	}
	for i, st := range []*Store{s, mustOpen(t, dir)} {
		if got, ok := st.Get(v.key); !ok || !bytes.Equal(got, v.payload) {
			t.Fatalf("store %d reads the repaired entry as (%q, %v)", i, got, ok)
		}
	}
}
