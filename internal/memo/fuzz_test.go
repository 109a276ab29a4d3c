package memo

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// resultFrames returns every result frame at any offset of raw that
// decodes under the key it names, by key. A tombstone never counts: the
// magic compared is the literal result magic.
func resultFrames(raw []byte) map[Hash][][]byte {
	out := make(map[Hash][][]byte)
	for i := 0; i+FrameOverhead <= len(raw); i++ {
		if string(raw[i:i+8]) != "PIFSMEM1" {
			continue
		}
		size := FrameOverhead + int64(binary.LittleEndian.Uint32(raw[i+42:]))
		if size > int64(len(raw)-i) {
			continue
		}
		key := Hash(raw[i+10 : i+42])
		if payload, ok := DecodeFrame(raw[i:i+int(size)], key); ok {
			out[key] = append(out[key], payload)
		}
	}
	return out
}

// namedKeys returns every key a record header anywhere in raw names.
func namedKeys(raw []byte) []Hash {
	var keys []Hash
	for i := 0; i+headerLen <= len(raw); i++ {
		if m := [8]byte(raw[i : i+8]); m == frameMagic || m == tombMagic {
			keys = append(keys, Hash(raw[i+10:i+42]))
		}
	}
	return keys
}

// FuzzStoreLog opens a store on arbitrary bytes as its log and Gets every
// key of the seed logs and every key a header in the input names. Open
// must succeed and nothing may panic, and every hit must return a payload
// that a CRC-valid result frame somewhere in the input binds to that key:
// no damage, torn tail, tombstone or resync can make up or misfile a
// result.
func FuzzStoreLog(f *testing.F) {
	a, b, c := victims[0], victims[1], victims[2]
	clean := bytes.Join([][]byte{
		EncodeFrame(a.key, a.payload), EncodeFrame(b.key, b.payload), tombstone(a.key), EncodeFrame(c.key, c.payload),
	}, nil)
	f.Add(clean)
	f.Add(clean[:len(clean)-9])                              // a torn tail
	f.Add(append(bytes.Clone(clean), "garbage PIF"...))      // trailing garbage
	f.Add(append(clean[:60:60], clean[30:]...))              // torn bytes, then intact records
	f.Add(append(tombstone(b.key), clean[:len(clean)/2]...)) // a tombstone first
	for _, at := range []int{0, 8, 20, 43, 60, len(clean) - 2} {
		flipped := bytes.Clone(clean)
		flipped[at] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add(frameMagic[:])
	seedKeys := []Hash{a.key, b.key, c.key, New("absent").Sum()}

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open on a %d-byte log: %v", len(raw), err)
		}
		defer s.Close()
		s.SetLRUBytes(0) // every Get reads the log
		valid := resultFrames(raw)
		for _, k := range append(seedKeys, namedKeys(raw)...) {
			got, ok := s.Get(k)
			if !ok {
				continue
			}
			found := false
			for _, p := range valid[k] {
				found = found || bytes.Equal(p, got)
			}
			if !found {
				t.Fatalf("key %s hit with %q, which no CRC-valid result frame in the log binds to it", k.Hex()[:12], got)
			}
		}
	})
}
