package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// StreamReader decodes a PIFSTRC1 trace incrementally: one bag per Next
// call, with all scratch buffers reused across calls, so a multi-GB
// production trace replays under a fixed allocation budget (the header plus
// at most one maximum-size bag, ~4 MB) instead of Read's whole-trace
// materialization. It is the only PIFSTRC1 decoder: Read drains one. Each
// bag is validated as it is decoded (the checks Trace.Validate applies), so
// a stream fails at the first offending bag.
type StreamReader struct {
	br     *bufio.Reader
	name   string
	tables int
	rows   int64
	nbags  uint64
	next   uint64
	idx    []uint32
	wts    []float32
	buf    []byte
	err    error // sticky: any decode failure poisons the stream
}

// NewStream reads and validates the trace header from r and returns a
// reader positioned at the first bag.
func NewStream(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	var b8 [8]byte
	if _, err := io.ReadFull(br, b8[:2]); err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	name := make([]byte, binary.LittleEndian.Uint16(b8[:2]))
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	if _, err := io.ReadFull(br, b8[:4]); err != nil {
		return nil, fmt.Errorf("trace: reading tables: %w", err)
	}
	tables := binary.LittleEndian.Uint32(b8[:4])
	if _, err := io.ReadFull(br, b8[:]); err != nil {
		return nil, fmt.Errorf("trace: reading rows: %w", err)
	}
	rows := binary.LittleEndian.Uint64(b8[:])
	if _, err := io.ReadFull(br, b8[:]); err != nil {
		return nil, fmt.Errorf("trace: reading bag count: %w", err)
	}
	nbags := binary.LittleEndian.Uint64(b8[:])
	const maxBags = 1 << 28 // sanity bound against corrupt headers
	if nbags > maxBags {
		return nil, fmt.Errorf("trace: implausible bag count %d", nbags)
	}
	return &StreamReader{
		br:     br,
		name:   string(name),
		tables: int(tables),
		rows:   int64(rows),
		nbags:  nbags,
	}, nil
}

// Name returns the trace name from the header.
func (s *StreamReader) Name() string { return s.name }

// Tables returns the table count from the header.
func (s *StreamReader) Tables() int { return s.tables }

// RowsPerTable returns the per-table row count from the header.
func (s *StreamReader) RowsPerTable() int64 { return s.rows }

// NumBags returns the header's bag count.
func (s *StreamReader) NumBags() uint64 { return s.nbags }

// Next decodes and validates the next bag. It returns io.EOF after the last
// bag. The returned Bag's Indices and Weights alias buffers the next call
// reuses — callers that retain a bag past the next call must copy it.
func (s *StreamReader) Next() (Bag, error) {
	if s.err != nil {
		return Bag{}, s.err
	}
	if s.next >= s.nbags {
		return Bag{}, io.EOF
	}
	i := s.next
	table, err := s.readU32()
	if err != nil {
		return Bag{}, s.fail(fmt.Errorf("trace: bag %d table: %w", i, err))
	}
	flags, err := s.br.ReadByte()
	if err != nil {
		return Bag{}, s.fail(fmt.Errorf("trace: bag %d flags: %w", i, err))
	}
	n, err := s.readU32()
	if err != nil {
		return Bag{}, s.fail(fmt.Errorf("trace: bag %d size: %w", i, err))
	}
	if n > 1<<20 {
		return Bag{}, s.fail(fmt.Errorf("trace: bag %d implausible size %d", i, n))
	}
	// Trace.Validate's table and row checks, applied as the bag decodes.
	if int32(table) < 0 || int(int32(table)) >= s.tables {
		return Bag{}, s.fail(fmt.Errorf("trace: bag %d references table %d of %d", i, int32(table), s.tables))
	}

	raw, err := s.fill(int(n) * 4)
	if err != nil {
		return Bag{}, s.fail(fmt.Errorf("trace: bag %d indices: %w", i, err))
	}
	if cap(s.idx) < int(n) {
		s.idx = make([]uint32, n)
	}
	bag := Bag{Table: int32(table), Indices: s.idx[:n:n]}
	for k := range bag.Indices {
		ix := binary.LittleEndian.Uint32(raw[4*k:])
		if int64(ix) >= s.rows {
			return Bag{}, s.fail(fmt.Errorf("trace: bag %d index %d beyond table rows %d", i, ix, s.rows))
		}
		bag.Indices[k] = ix
	}
	if flags&1 != 0 {
		raw, err := s.fill(int(n) * 4)
		if err != nil {
			return Bag{}, s.fail(fmt.Errorf("trace: bag %d weights: %w", i, err))
		}
		if cap(s.wts) < int(n) || s.wts == nil {
			// Grow, and materialize even for a zero-size weighted bag: a
			// non-nil Weights slice is what marks a bag weighted (make of
			// length 0 is non-nil).
			s.wts = make([]float32, n)
		}
		bag.Weights = s.wts[:n:n]
		for k := range bag.Weights {
			bag.Weights[k] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*k:]))
		}
	}
	s.next++
	return bag, nil
}

func (s *StreamReader) fail(err error) error {
	s.err = err
	return err
}

// readU32 decodes one field through the scratch buffer; a local array
// would escape through io.ReadFull and allocate on every call.
func (s *StreamReader) readU32() (uint32, error) {
	b, err := s.fill(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// fill reads exactly n bytes into the reused scratch buffer.
func (s *StreamReader) fill(n int) ([]byte, error) {
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	buf := s.buf[:n]
	if _, err := io.ReadFull(s.br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// FileStream is a StreamReader over an opened file.
type FileStream struct {
	*StreamReader
	f *os.File
}

// OpenStream opens path for streaming decode. Close it when done.
func OpenStream(path string) (*FileStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sr, err := NewStream(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileStream{StreamReader: sr, f: f}, nil
}

// Close closes the underlying file.
func (fs *FileStream) Close() error { return fs.f.Close() }
