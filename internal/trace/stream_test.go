package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// streamAll drains a stream into a materialized bag list (copying, since
// Next's returned slices alias reused buffers) or returns the first error.
// Indices are always allocated and weights iff the weighted flag was set, so
// DeepEqual against a fixture's bags is exact.
func streamAll(sr *StreamReader) ([]Bag, error) {
	var out []Bag
	for {
		bag, err := sr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		cp := Bag{Table: bag.Table, Indices: make([]uint32, len(bag.Indices))}
		copy(cp.Indices, bag.Indices)
		if bag.Weights != nil {
			cp.Weights = make([]float32, len(bag.Weights))
			copy(cp.Weights, bag.Weights)
		}
		out = append(out, cp)
	}
}

// TestStreamAgreesWithRead: the streaming decoder must yield exactly the
// fixture's header and bag sequence, then io.EOF.
func TestStreamAgreesWithRead(t *testing.T) {
	full, want := encodedFixture(t)
	sr, err := NewStream(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Name() != want.Name || sr.Tables() != want.Tables ||
		sr.RowsPerTable() != want.RowsPerTable || sr.NumBags() != uint64(len(want.Bags)) {
		t.Fatalf("header mismatch: %s/%d/%d/%d", sr.Name(), sr.Tables(), sr.RowsPerTable(), sr.NumBags())
	}
	bags, err := streamAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bags, want.Bags) {
		t.Fatalf("bag sequence diverged:\n stream: %+v\n want:   %+v", bags, want.Bags)
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next returned %v", err)
	}
}

// TestStreamTruncationAtEveryOffset mirrors the Read gate: every cut of the
// encoding must surface a clean error from NewStream or some Next — never a
// panic, never a silently short bag sequence.
func TestStreamTruncationAtEveryOffset(t *testing.T) {
	full, _ := encodedFixture(t)
	for cut := 0; cut < len(full); cut++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("stream panicked on truncation at %d/%d: %v", cut, len(full), p)
				}
			}()
			sr, err := NewStream(bytes.NewReader(full[:cut]))
			if err != nil {
				return
			}
			if bags, err := streamAll(sr); err == nil {
				t.Errorf("truncation at %d/%d accepted %d bags", cut, len(full), len(bags))
			}
		}()
	}
}

// TestStreamRejectsCorruptHeaders runs the Read corruption cases through the
// stream: each must fail at the header or at the offending bag.
func TestStreamRejectsCorruptHeaders(t *testing.T) {
	full, tr := encodedFixture(t)
	nameOff := 8 + 2
	nbagsOff := nameOff + len(tr.Name) + 4 + 8
	firstBagOff := nbagsOff + 8

	cases := []struct {
		name string
		data []byte
	}{
		{"bad magic", func() []byte {
			d := append([]byte(nil), full...)
			d[0] = 'X'
			return d
		}()},
		{"implausible bag count", func() []byte {
			d := append([]byte(nil), full...)
			binary.LittleEndian.PutUint64(d[nbagsOff:], 1<<40)
			return d
		}()},
		{"bag count beyond payload", func() []byte {
			d := append([]byte(nil), full...)
			binary.LittleEndian.PutUint64(d[nbagsOff:], uint64(len(tr.Bags)+7))
			return d
		}()},
		{"implausible bag size", corruptU32(full, firstBagOff+4+1, 1<<24)},
		{"out-of-range table", corruptU32(full, firstBagOff, 9000)},
		{"out-of-range row index", corruptU32(full, firstBagOff+4+1+4, 1<<30)},
	}
	for _, c := range cases {
		sr, err := NewStream(bytes.NewReader(c.data))
		if err != nil {
			continue
		}
		if bags, err := streamAll(sr); err == nil {
			t.Errorf("%s: stream accepted %d bags", c.name, len(bags))
		}
	}
}

// TestStreamErrorSticks: after one decode failure every further Next must
// return the same error instead of resynchronizing mid-payload.
func TestStreamErrorSticks(t *testing.T) {
	full, tr := encodedFixture(t)
	nameOff := 8 + 2
	firstBagOff := nameOff + len(tr.Name) + 4 + 8 + 8
	bad := corruptU32(full, firstBagOff, 9000) // bag 0 references table 9000
	sr, err := NewStream(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	_, err1 := sr.Next()
	if err1 == nil {
		t.Fatal("corrupt bag accepted")
	}
	_, err2 := sr.Next()
	if err2 != err1 {
		t.Fatalf("error did not stick: %v then %v", err1, err2)
	}
}

// syntheticTrace is an io.Reader that emits a PIFSTRC1 stream of identical
// bags without materializing it: a fixed header prefix, then one encoded bag
// record served cyclically. It makes multi-gigabyte inputs cost no memory on
// the producer side, so the consumer's allocations are what the gate sees.
type syntheticTrace struct {
	header []byte
	record []byte
	nbags  int
	// position: bags fully or partially emitted so far, offset within record.
	emitted int
	off     int
}

func newSyntheticTrace(nbags, bagSize int) *syntheticTrace {
	h := append([]byte(nil), fileMagic[:]...)
	h = binary.LittleEndian.AppendUint16(h, 5)
	h = append(h, "synth"...)
	h = binary.LittleEndian.AppendUint32(h, 1)                 // tables
	h = binary.LittleEndian.AppendUint64(h, uint64(bagSize)+1) // rows per table
	h = binary.LittleEndian.AppendUint64(h, uint64(nbags))

	var rec []byte
	rec = binary.LittleEndian.AppendUint32(rec, 0) // table
	rec = append(rec, 0)                           // flags: unweighted
	rec = binary.LittleEndian.AppendUint32(rec, uint32(bagSize))
	for i := 0; i < bagSize; i++ {
		rec = binary.LittleEndian.AppendUint32(rec, uint32(i))
	}
	return &syntheticTrace{header: h, record: rec, nbags: nbags}
}

func (s *syntheticTrace) Read(p []byte) (int, error) {
	n := 0
	if len(s.header) > 0 {
		c := copy(p, s.header)
		s.header = s.header[c:]
		n += c
	}
	for n < len(p) && s.emitted < s.nbags {
		c := copy(p[n:], s.record[s.off:])
		n += c
		s.off += c
		if s.off == len(s.record) {
			s.off = 0
			s.emitted++
		}
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// TestStreamBoundedMemory is the gate the streaming reader exists for: a
// synthetic trace far larger than memory-friendly (2.5 GB of payload; 64 MB
// under -short) must stream to completion inside a fixed allocation budget —
// the header plus one bag of scratch, nowhere near the payload size.
func TestStreamBoundedMemory(t *testing.T) {
	nbags, bagSize := 160_000, 4096 // ~2.6 GB of index payload
	if testing.Short() {
		nbags = 4_000 // ~65 MB
	}
	src := newSyntheticTrace(nbags, bagSize)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	sr, err := NewStream(src)
	if err != nil {
		t.Fatal(err)
	}
	var bags, rows int64
	for {
		bag, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		bags++
		rows += int64(len(bag.Indices))
	}
	runtime.ReadMemStats(&after)

	if bags != int64(nbags) || rows != int64(nbags)*int64(bagSize) {
		t.Fatalf("streamed %d bags / %d rows, want %d / %d", bags, rows, nbags, nbags*bagSize)
	}
	// Budget: cumulative allocation across the whole stream. The reader's
	// steady state allocates nothing per bag — scratch buffers are reused —
	// so total allocation stays within a few MB regardless of payload size.
	allocated := after.TotalAlloc - before.TotalAlloc
	if budget := uint64(8 << 20); allocated > budget {
		t.Fatalf("streaming a %d MB trace allocated %d MB, budget %d MB",
			int64(nbags)*int64(len(newSyntheticTrace(1, bagSize).record))>>20,
			allocated>>20, budget>>20)
	}
}
