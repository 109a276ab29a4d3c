package trace

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// encodedFixture returns a serialized trace with both weighted and
// unweighted bags, plus the decoded original for comparison.
func encodedFixture(t testing.TB) ([]byte, *Trace) {
	t.Helper()
	tr := &Trace{
		Name:         "corruption-fixture",
		Tables:       3,
		RowsPerTable: 64,
		Bags: []Bag{
			{Table: 0, Indices: []uint32{1, 5, 9}},
			{Table: 2, Indices: []uint32{0, 63}, Weights: []float32{0.5, -1.25}},
			{Table: 1, Indices: []uint32{7}},
		},
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tr
}

// TestFileTruncationAtEveryOffset cuts the encoding at every byte boundary
// and requires a clean error from Read — never a panic, never a silently
// short trace.
func TestFileTruncationAtEveryOffset(t *testing.T) {
	full, _ := encodedFixture(t)
	for cut := 0; cut < len(full); cut++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Read panicked on truncation at %d/%d: %v", cut, len(full), p)
				}
			}()
			got, err := Read(bytes.NewReader(full[:cut]))
			if err == nil {
				t.Errorf("truncation at %d/%d accepted: %+v", cut, len(full), got)
			}
		}()
	}
}

// TestFileRoundTripSurvivesFullEncoding pins the fixture round trip,
// including weights and negative values.
func TestFileRoundTripSurvivesFullEncoding(t *testing.T) {
	full, want := encodedFixture(t)
	got, err := Read(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || got.Tables != want.Tables || got.RowsPerTable != want.RowsPerTable {
		t.Fatalf("header mismatch: %+v vs %+v", got, want)
	}
	if len(got.Bags) != len(want.Bags) {
		t.Fatalf("bag count %d, want %d", len(got.Bags), len(want.Bags))
	}
	if w := got.Bags[1].Weights; len(w) != 2 || w[0] != 0.5 || w[1] != -1.25 {
		t.Errorf("weights corrupted: %v", w)
	}
}

// corruptU32 overwrites a little-endian u32 at off.
func corruptU32(data []byte, off int, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

// TestFileRejectsCorruptHeaders flips header fields to implausible or
// inconsistent values and requires errors: bad magic, absurd bag counts,
// absurd bag sizes, and out-of-range indices (caught by Validate).
func TestFileRejectsCorruptHeaders(t *testing.T) {
	full, tr := encodedFixture(t)
	nameOff := 8 + 2
	tablesOff := nameOff + len(tr.Name)
	rowsOff := tablesOff + 4
	nbagsOff := rowsOff + 8
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
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: Read panicked: %v", c.name, p)
				}
			}()
			if got, err := Read(bytes.NewReader(c.data)); err == nil {
				t.Errorf("%s: accepted as %+v", c.name, got)
			}
		}()
	}
}

// TestFileRejectsTrailingTruncationInWeights cuts inside the weighted
// bag's weight array specifically — the last variable-length section.
func TestFileRejectsTrailingTruncationInWeights(t *testing.T) {
	full, _ := encodedFixture(t)
	// The fixture's final section is bag 3; cut mid-way through bag 2's
	// weights by locating the last 12 bytes of bag 2 heuristically: just
	// exercise a band of cuts in the middle third, which spans it.
	for cut := len(full) / 3; cut < 2*len(full)/3; cut++ {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("cut at %d accepted", cut)
		}
	}
}

// TestFileErrorsNameBagIndex checks error text mentions where decoding
// failed, which is what makes corrupt-trace reports actionable.
func TestFileErrorsNameBagIndex(t *testing.T) {
	full, _ := encodedFixture(t)
	_, err := Read(bytes.NewReader(full[:len(full)-2]))
	if err == nil {
		t.Fatal("truncated tail accepted")
	}
	if !strings.Contains(err.Error(), "bag") {
		t.Errorf("error %q does not locate the failing bag", err)
	}
}

// goldenTrace covers every bag shape the format has: unweighted, weighted,
// and zero-index bags with and without a (then empty) weight slice.
func goldenTrace() *Trace {
	return &Trace{
		Name:         "golden",
		Tables:       4,
		RowsPerTable: 1 << 20,
		Bags: []Bag{
			{Table: 0, Indices: []uint32{3, 1 << 19, 42}},
			{Table: 3, Indices: []uint32{7, 8}, Weights: []float32{0.25, -2}},
			{Table: 2},
			{Table: 1, Indices: []uint32{}, Weights: []float32{}},
		},
	}
}

// TestWriteGolden pins the PIFSTRC1 bytes of a fixed trace. Every trace
// hash, memo key and trace a coordinator serves its workers is derived from
// these bytes, so a change to them must be deliberate (and bump
// memo.CodeVersion), never a side effect of an encoder rewrite.
func TestWriteGolden(t *testing.T) {
	const (
		wantLen = 100
		wantSHA = "dfb986fce927328fe7d6c0165154a4c7c09099ba0b883cbf46efa2a1e1d331e5"
	)
	tr := goldenTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if buf.Len() != wantLen || hex.EncodeToString(sum[:]) != wantSHA {
		t.Errorf("PIFSTRC1 encoding drifted: %d bytes, sha256 %x; want %d bytes, sha256 %s",
			buf.Len(), sum, wantLen, wantSHA)
	}
	h, err := tr.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != sum {
		t.Errorf("Hash %x is not the SHA-256 of Write's bytes %x", h, sum)
	}

	// Read gives the trace back. A weighted bag keeps a non-nil Weights
	// even with no indices, since that is what marks it weighted.
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || back.Tables != tr.Tables || back.RowsPerTable != tr.RowsPerTable ||
		len(back.Bags) != len(tr.Bags) {
		t.Fatalf("read back %q %d×%d with %d bags", back.Name, back.Tables, back.RowsPerTable, len(back.Bags))
	}
	for i, b := range back.Bags {
		want := tr.Bags[i]
		if b.Table != want.Table || !slices.Equal(b.Indices, want.Indices) ||
			!slices.Equal(b.Weights, want.Weights) || (b.Weights == nil) != (want.Weights == nil) {
			t.Errorf("bag %d read back as %+v (weighted %t), want %+v (weighted %t)",
				i, b, b.Weights != nil, want, want.Weights != nil)
		}
	}
}

// refWrite is the per-field encoder Write replaced: every field, index and
// weight is its own write into a bufio.Writer. It is kept as the reference
// the bag-at-a-time encoder must match byte for byte.
func refWrite(t *Trace, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(fileMagic[:]); err != nil {
		return err
	}
	if len(t.Name) > math.MaxUint16 {
		return fmt.Errorf("trace: name too long (%d bytes)", len(t.Name))
	}
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(t.Name)))
	bw.Write(u16[:])
	bw.WriteString(t.Name)

	var u32 [4]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(t.Tables))
	bw.Write(u32[:])
	binary.LittleEndian.PutUint64(u64[:], uint64(t.RowsPerTable))
	bw.Write(u64[:])
	binary.LittleEndian.PutUint64(u64[:], uint64(len(t.Bags)))
	bw.Write(u64[:])

	for i := range t.Bags {
		b := &t.Bags[i]
		binary.LittleEndian.PutUint32(u32[:], uint32(b.Table))
		bw.Write(u32[:])
		flags := byte(0)
		if b.Weights != nil {
			flags |= 1
		}
		bw.WriteByte(flags)
		binary.LittleEndian.PutUint32(u32[:], uint32(len(b.Indices)))
		bw.Write(u32[:])
		for _, ix := range b.Indices {
			binary.LittleEndian.PutUint32(u32[:], ix)
			bw.Write(u32[:])
		}
		if b.Weights != nil {
			for _, wt := range b.Weights {
				binary.LittleEndian.PutUint32(u32[:], math.Float32bits(wt))
				bw.Write(u32[:])
			}
		}
	}
	return bw.Flush()
}

// randomTrace draws a trace with an arbitrary name and header fields and
// up to 40 bags, each weighted or unweighted with 0 to 300 indices. Write
// does not validate, so indices and tables need not fit the shape.
func randomTrace(rng *rand.Rand) *Trace {
	name := make([]byte, rng.IntN(40))
	for k := range name {
		name[k] = byte(rng.IntN(256))
	}
	tr := &Trace{Name: string(name), Tables: rng.IntN(1 << 20), RowsPerTable: rng.Int64()}
	for range rng.IntN(41) {
		n := rng.IntN(301)
		b := Bag{Table: rng.Int32(), Indices: make([]uint32, n)}
		for k := range b.Indices {
			b.Indices[k] = rng.Uint32()
		}
		if rng.IntN(2) == 0 {
			b.Weights = make([]float32, n)
			for k := range b.Weights {
				b.Weights[k] = float32(rng.NormFloat64())
			}
		}
		tr.Bags = append(tr.Bags, b)
	}
	return tr
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errWriterFull = errors.New("writer full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errWriterFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteMatchesPerFieldEncoder holds Write to the per-field reference
// encoder on random traces: identical bytes, Hash equal to their SHA-256,
// and the same errors for an oversized name or a failing writer.
func TestWriteMatchesPerFieldEncoder(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 1))
	for i := 0; i < 300; i++ {
		tr := randomTrace(rng)
		var want, got bytes.Buffer
		if err := refWrite(tr, &want); err != nil {
			t.Fatal(err)
		}
		if err := tr.Write(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trace %d (%d bags): Write gave %d bytes, the per-field encoder %d, first difference at %d",
				i, len(tr.Bags), got.Len(), want.Len(), firstDiff(got.Bytes(), want.Bytes()))
		}
		h, err := tr.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != sha256.Sum256(want.Bytes()) {
			t.Fatalf("trace %d: Hash is not the SHA-256 of the reference bytes", i)
		}
		// A writer that fails part-way fails the encode, wherever it stops.
		if cut := rng.IntN(want.Len()); tr.Write(&failAfter{n: cut}) == nil {
			t.Fatalf("trace %d: writer failing after %d of %d bytes went unreported", i, cut, want.Len())
		}
	}

	for _, n := range []int{math.MaxUint16, math.MaxUint16 + 1} {
		tr := goldenTrace()
		tr.Name = strings.Repeat("n", n)
		var want, got bytes.Buffer
		refErr, err := refWrite(tr, &want), tr.Write(&got)
		_, hashErr := tr.Hash()
		if (refErr == nil) != (err == nil) || (err == nil) != (hashErr == nil) {
			t.Fatalf("%d-byte name: reference %v, Write %v, Hash %v", n, refErr, err, hashErr)
		}
		if n > math.MaxUint16 {
			if err == nil || !strings.Contains(err.Error(), "name too long") {
				t.Fatalf("%d-byte name: Write error %v, want name too long", n, err)
			}
			if got.Len() != 0 {
				t.Errorf("%d-byte name: Write emitted %d bytes before failing", n, got.Len())
			}
		} else if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d-byte name: encodings differ", n)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestReadAllocsPerBag bounds the whole-trace decoder's allocations to a few
// per bag: a reader that allocated per field would cost one allocation per
// index, over 100K on this 4096-bag trace.
func TestReadAllocsPerBag(t *testing.T) {
	tr, err := Generate(Spec{
		Kind: MetaLike, Tables: 8, RowsPerTable: 1 << 20,
		Batches: 4, BatchSize: 128, BagSize: 32, Seed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Bags[1].Weights = make([]float32, len(tr.Bags[1].Indices))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(4*len(tr.Bags) + 64); allocs > limit {
		t.Errorf("Read of %d bags: %.0f allocations, want at most %.0f", len(tr.Bags), allocs, limit)
	}
}
