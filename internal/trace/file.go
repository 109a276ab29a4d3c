package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// File format: a small custom binary encoding (the repository is stdlib-only
// and offline, so no serialization dependencies).
//
//	magic   [8]byte  "PIFSTRC1"
//	name    u16 len + bytes
//	tables  u32
//	rows    u64
//	nbags   u64
//	bags:   table u32 | flags u8 (bit0: weighted) | n u32 | n×u32 indices
//	        [| n×f32 weights]
//
// All integers are little-endian.

var fileMagic = [8]byte{'P', 'I', 'F', 'S', 'T', 'R', 'C', '1'}

// Write serializes the trace to w: the header in one write, then one write
// per bag. Every write reuses one scratch buffer, so the allocations do not
// grow with the bag count. w is not buffered here; Save wraps its file in a
// bufio.Writer.
func (t *Trace) Write(w io.Writer) error {
	if len(t.Name) > math.MaxUint16 {
		return fmt.Errorf("trace: name too long (%d bytes)", len(t.Name))
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, 4096)
	buf = append(buf, fileMagic[:]...)
	buf = le.AppendUint16(buf, uint16(len(t.Name)))
	buf = append(buf, t.Name...)
	buf = le.AppendUint32(buf, uint32(t.Tables))
	buf = le.AppendUint64(buf, uint64(t.RowsPerTable))
	buf = le.AppendUint64(buf, uint64(len(t.Bags)))
	if _, err := w.Write(buf); err != nil {
		return err
	}

	for i := range t.Bags {
		b := &t.Bags[i]
		flags := byte(0)
		if b.Weights != nil {
			flags |= 1
		}
		buf = le.AppendUint32(buf[:0], uint32(b.Table))
		buf = append(buf, flags)
		buf = le.AppendUint32(buf, uint32(len(b.Indices)))
		for _, ix := range b.Indices {
			buf = le.AppendUint32(buf, ix)
		}
		for _, wt := range b.Weights {
			buf = le.AppendUint32(buf, math.Float32bits(wt))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// Read deserializes a trace written by Write. It drains a StreamReader and
// copies each bag out of the stream's reused buffers, so the whole-trace and
// streaming paths share one decoder and reject exactly the same inputs.
func Read(r io.Reader) (*Trace, error) {
	sr, err := NewStream(r)
	if err != nil {
		return nil, err
	}
	// Preallocate from the header's bag count, but cap the hint: a corrupt
	// header passing the stream's sanity bound could otherwise reserve
	// gigabytes before the first bag fails to decode.
	t := &Trace{
		Name:         sr.Name(),
		Tables:       sr.Tables(),
		RowsPerTable: sr.RowsPerTable(),
		Bags:         make([]Bag, 0, min(sr.NumBags(), 4096)),
	}
	for {
		b, err := sr.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		// Indices are always allocated and Weights iff the bag is weighted,
		// so a zero-size weighted bag keeps its non-nil Weights.
		cp := Bag{Table: b.Table, Indices: make([]uint32, len(b.Indices))}
		copy(cp.Indices, b.Indices)
		if b.Weights != nil {
			cp.Weights = make([]float32, len(b.Weights))
			copy(cp.Weights, b.Weights)
		}
		t.Bags = append(t.Bags, cp)
	}
}

// Save writes the trace to a file path.
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = t.Write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a trace from a file path.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
