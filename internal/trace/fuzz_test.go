package trace

// Go native fuzz target for the trace file decoder. The seed corpus is the
// valid fixture plus the corrupt-header shapes the unit tests pin (bad
// magic, implausible counts, truncations); the fuzzer mutates from there.
// CI runs `go test -fuzz FuzzReadFile -fuzztime=30s ./internal/trace/` as a
// non-gating smoke; locally, run it longer.
//
// Invariants:
//   - Read never panics, whatever the bytes.
//   - Read(data) == nil error implies the trace passes Validate.
//   - An accepted trace round-trips: Write then Read reproduces it exactly.

import (
	"bytes"
	"reflect"
	"testing"
)

func FuzzReadFile(f *testing.F) {
	full, tr := encodedFixture(f)
	f.Add(full)

	// Corrupt-header corpus: every rejection class the unit tests cover.
	badMagic := append([]byte(nil), full...)
	badMagic[0] = 'X'
	f.Add(badMagic)

	nameOff := 8 + 2
	nbagsOff := nameOff + len(tr.Name) + 4 + 8
	firstBagOff := nbagsOff + 8
	f.Add(corruptU32(full, nbagsOff, 1<<27))        // huge bag count, tiny payload
	f.Add(corruptU32(full, firstBagOff, 9000))      // out-of-range table
	f.Add(corruptU32(full, firstBagOff+4+1, 1<<24)) // implausible bag size
	f.Add(corruptU32(full, firstBagOff+4+1+4, 1<<30))

	f.Add([]byte{})
	f.Add([]byte("PIFSTRC1"))
	f.Add(full[:7])
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panicking or mis-accepting is not
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("Read accepted a trace Validate rejects: %v", verr)
		}
		var buf bytes.Buffer
		if werr := got.Write(&buf); werr != nil {
			t.Fatalf("accepted trace does not re-encode: %v", werr)
		}
		back, rerr := Read(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("round trip rejected: %v", rerr)
		}
		if !reflect.DeepEqual(got, back) {
			t.Fatalf("round trip changed the trace:\n  first:  %+v\n  second: %+v", got, back)
		}
	})
}
