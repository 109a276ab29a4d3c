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

// Read deserializes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	readU16 := func() (uint16, error) {
		var b [2]byte
		_, err := io.ReadFull(br, b[:])
		return binary.LittleEndian.Uint16(b[:]), err
	}
	readU32 := func() (uint32, error) {
		var b [4]byte
		_, err := io.ReadFull(br, b[:])
		return binary.LittleEndian.Uint32(b[:]), err
	}
	readU64 := func() (uint64, error) {
		var b [8]byte
		_, err := io.ReadFull(br, b[:])
		return binary.LittleEndian.Uint64(b[:]), err
	}

	nameLen, err := readU16()
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	tables, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("trace: reading tables: %w", err)
	}
	rows, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("trace: reading rows: %w", err)
	}
	nbags, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("trace: reading bag count: %w", err)
	}
	const maxBags = 1 << 28 // sanity bound against corrupt headers
	if nbags > maxBags {
		return nil, fmt.Errorf("trace: implausible bag count %d", nbags)
	}

	// Preallocate from the header's bag count, but cap the hint: a corrupt
	// header passing the maxBags sanity bound could otherwise reserve
	// gigabytes before the first bag fails to decode.
	capHint := nbags
	if capHint > 4096 {
		capHint = 4096
	}
	t := &Trace{
		Name:         string(name),
		Tables:       int(tables),
		RowsPerTable: int64(rows),
		Bags:         make([]Bag, 0, capHint),
	}
	for i := uint64(0); i < nbags; i++ {
		table, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("trace: bag %d table: %w", i, err)
		}
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: bag %d flags: %w", i, err)
		}
		n, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("trace: bag %d size: %w", i, err)
		}
		if n > 1<<20 {
			return nil, fmt.Errorf("trace: bag %d implausible size %d", i, n)
		}
		b := Bag{Table: int32(table), Indices: make([]uint32, n)}
		for k := range b.Indices {
			if b.Indices[k], err = readU32(); err != nil {
				return nil, fmt.Errorf("trace: bag %d index %d: %w", i, k, err)
			}
		}
		if flags&1 != 0 {
			b.Weights = make([]float32, n)
			for k := range b.Weights {
				bits, err := readU32()
				if err != nil {
					return nil, fmt.Errorf("trace: bag %d weight %d: %w", i, k, err)
				}
				b.Weights[k] = math.Float32frombits(bits)
			}
		}
		t.Bags = append(t.Bags, b)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
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
