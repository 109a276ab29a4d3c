package dram

import (
	"strings"
	"testing"
	"testing/quick"

	"pifsrec/internal/sim"
)

// mapByDivision is Map's RoRaBgBaCoCh layout in division form, nine 64-bit
// divisions by geometry fields per address. It works for any geometry and
// is the reference the line decoder is held to.
func (g Geometry) mapByDivision(addr uint64) Loc {
	il := g.interleave()
	chunk := addr / il
	offset := addr % il
	var l Loc
	l.Channel = int(chunk % uint64(g.Channels))
	// Channel-local byte address, then decompose into 64 B columns.
	local := (chunk/uint64(g.Channels))*il + offset
	block := local / accessBytes
	cols := uint64(g.RowBytes / accessBytes)
	l.Col = int(block % cols)
	block /= cols
	l.Bank = int(block % uint64(g.Banks))
	block /= uint64(g.Banks)
	l.Group = int(block % uint64(g.BankGroups))
	block /= uint64(g.BankGroups)
	l.Rank = int(block % uint64(g.Ranks))
	block /= uint64(g.Ranks)
	l.Row = int(block % uint64(g.Rows))
	return l
}

// Unmap is the inverse of Map; it reconstructs the base address of a block.
func (g Geometry) Unmap(l Loc) uint64 {
	cols := uint64(g.RowBytes / accessBytes)
	block := uint64(l.Row)
	block = block*uint64(g.Ranks) + uint64(l.Rank)
	block = block*uint64(g.BankGroups) + uint64(l.Group)
	block = block*uint64(g.Banks) + uint64(l.Bank)
	block = block*cols + uint64(l.Col)
	local := block * accessBytes
	il := g.interleave()
	chunk := local / il
	offset := local % il
	return (chunk*uint64(g.Channels)+uint64(l.Channel))*il + offset
}

// hostGeometry is engine.localGeometry, the host's 12-channel DDR5 with
// page-granular interleave, copied because dram cannot import engine.
func hostGeometry() Geometry {
	return Geometry{Channels: 12, Ranks: 2, BankGroups: 4, Banks: 4,
		Rows: 1 << 12, RowBytes: 8192, InterleaveBytes: 4096}
}

// decoderGeometries are the geometries the line decoder is held to the
// division reference on. The engine's three are copied from
// engine.localGeometry, nmpGeometry and deviceGeometry; the cxl and fabric
// ones from those packages' tests.
var decoderGeometries = []struct {
	name string
	geo  Geometry
}{
	{"engine-local-12ch", hostGeometry()},
	{"engine-nmp-24ch", Geometry{Channels: 24, Ranks: 2, BankGroups: 4, Banks: 4,
		Rows: 1 << 12, RowBytes: 8192, InterleaveBytes: 4096}},
	{"engine-device-4ch", Geometry{Channels: 4, Ranks: 2, BankGroups: 4, Banks: 4,
		Rows: 1 << 11, RowBytes: 8192, InterleaveBytes: 4096}},
	{"table2", Table2Geometry()},
	{"cxl-test", Geometry{Channels: 2, Ranks: 1, BankGroups: 2, Banks: 2, Rows: 256, RowBytes: 1024}},
	{"fabric-test", Geometry{Channels: 2, Ranks: 1, BankGroups: 2, Banks: 2, Rows: 1024, RowBytes: 2048}},
	{"odd-3ch", Geometry{Channels: 3, Ranks: 4, BankGroups: 2, Banks: 8,
		Rows: 1 << 10, RowBytes: 4096, InterleaveBytes: 256}},
	{"odd-7ch-wide-rows", Geometry{Channels: 7, Ranks: 1, BankGroups: 8, Banks: 2,
		Rows: 1 << 20, RowBytes: 1 << 14, InterleaveBytes: 1 << 14}},
	{"one-channel", Geometry{Channels: 1, Ranks: 2, BankGroups: 4, Banks: 4, Rows: 1 << 8, RowBytes: 2048}},
}

// TestLineDecoderMatchesReference holds the controller's decoder to the
// division form on random addresses: a third below capacity, a third below
// four times capacity (rows wrap) and a third over the full uint64 range.
// Channel, flattened bank, rank and row must all agree, and so must Map's
// Loc view.
func TestLineDecoderMatchesReference(t *testing.T) {
	const perGeometry = 200_000
	for gi, tc := range decoderGeometries {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.geo
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			d := newLineDecoder(g)
			capacity := uint64(g.Capacity())
			rng := sim.NewRNG(uint64(100 + gi))
			for i := 0; i < perGeometry; i++ {
				addr := rng.Uint64()
				switch i % 3 {
				case 0:
					addr %= capacity
				case 1:
					addr %= 4 * capacity
				}
				want := g.mapByDivision(addr)
				wantBank := (want.Rank*g.BankGroups+want.Group)*g.Banks + want.Bank
				ch, bank, rank, row := d.decode(addr)
				if ch != want.Channel || int(bank) != wantBank || int(rank) != want.Rank || int(row) != want.Row {
					t.Fatalf("addr %#x: decode = ch %d bank %d rank %d row %d, reference %+v (bank %d)",
						addr, ch, bank, rank, row, want, wantBank)
				}
				if got := g.Map(addr); got != want {
					t.Fatalf("addr %#x: Map = %+v, reference %+v", addr, got, want)
				}
			}
		})
	}
}

func TestGeometryCapacity(t *testing.T) {
	g := Table2Geometry()
	want := int64(4) * 2 * 4 * 4 * (1 << 16) * 8192
	if got := g.Capacity(); got != want {
		t.Fatalf("Capacity = %d, want %d", got, want)
	}
}

func TestGeometryValidate(t *testing.T) {
	g := Table2Geometry()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	for _, channels := range []int{12, 24} {
		ok := hostGeometry()
		ok.Channels = channels
		if err := ok.Validate(); err != nil {
			t.Errorf("%d-channel geometry rejected: %v", channels, err)
		}
	}
	bad := g
	bad.Channels = 0
	if bad.Validate() == nil {
		t.Error("zero channels accepted")
	}
	bad = g
	bad.RowBytes = 100 // not a multiple of 64
	if bad.Validate() == nil {
		t.Error("non-multiple RowBytes accepted")
	}
	for _, tc := range []struct {
		field string
		edit  func(*Geometry)
	}{
		// Not a power of two below the channel.
		{"Ranks", func(g *Geometry) { g.Ranks = 3 }},
		{"BankGroups", func(g *Geometry) { g.BankGroups = 3 }},
		{"Banks", func(g *Geometry) { g.Banks = 6 }},
		{"Rows", func(g *Geometry) { g.Rows = 1000 }},
		{"RowBytes", func(g *Geometry) { g.RowBytes = 192 }},
		// Past a width the compact request narrows to.
		{"Rows", func(g *Geometry) { g.Rows = maxRows * 2 }},
		{"Ranks", func(g *Geometry) { g.Ranks = maxRanks * 2 }},
		{"Ranks×BankGroups×Banks", func(g *Geometry) { g.Banks = maxBanks }},
	} {
		bad := g
		tc.edit(&bad)
		err := bad.Validate()
		if err == nil {
			t.Errorf("%s: %+v accepted", tc.field, bad)
			continue
		}
		if !strings.Contains(err.Error(), tc.field+" (") {
			t.Errorf("%s: error does not name the field: %v", tc.field, err)
		}
	}
}

func TestMapUnmapRoundTrip(t *testing.T) {
	g := Table2Geometry()
	cap := uint64(g.Capacity())
	f := func(seed uint64) bool {
		addr := (seed % cap) &^ (accessBytes - 1)
		return g.Unmap(g.Map(addr)) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapChannelInterleave(t *testing.T) {
	g := Table2Geometry()
	// Consecutive 64 B lines must round-robin across channels.
	for i := 0; i < 16; i++ {
		l := g.Map(uint64(i * accessBytes))
		if l.Channel != i%g.Channels {
			t.Fatalf("line %d mapped to channel %d, want %d", i, l.Channel, i%g.Channels)
		}
	}
}

func TestMapColumnsBeforeBanks(t *testing.T) {
	g := Table2Geometry()
	// Walking addresses within one channel should first sweep columns of the
	// same row/bank before switching banks.
	stride := uint64(accessBytes * g.Channels)
	first := g.Map(0)
	cols := g.RowBytes / accessBytes
	for i := 1; i < cols; i++ {
		l := g.Map(stride * uint64(i))
		if l.Bank != first.Bank || l.Row != first.Row || l.Group != first.Group {
			t.Fatalf("col walk %d left the bank: %+v vs %+v", i, l, first)
		}
		if l.Col != i {
			t.Fatalf("col walk %d: Col=%d", i, l.Col)
		}
	}
	// The next line after the row's columns should land in a new bank.
	l := g.Map(stride * uint64(cols))
	if l.Bank == first.Bank && l.Group == first.Group && l.Rank == first.Rank {
		t.Fatalf("expected bank change after row sweep, got %+v", l)
	}
}

func TestMapFieldsInRange(t *testing.T) {
	g := Table2Geometry()
	cap := uint64(g.Capacity())
	f := func(seed uint64) bool {
		l := g.Map(seed % cap)
		return l.Channel >= 0 && l.Channel < g.Channels &&
			l.Rank >= 0 && l.Rank < g.Ranks &&
			l.Group >= 0 && l.Group < g.BankGroups &&
			l.Bank >= 0 && l.Bank < g.Banks &&
			l.Row >= 0 && l.Row < g.Rows &&
			l.Col >= 0 && l.Col < g.RowBytes/accessBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapDistinctAddressesDistinctLocs(t *testing.T) {
	g := Geometry{Channels: 2, Ranks: 2, BankGroups: 2, Banks: 2, Rows: 8, RowBytes: 256}
	seen := map[Loc]uint64{}
	for a := uint64(0); a < uint64(g.Capacity()); a += accessBytes {
		l := g.Map(a)
		if prev, dup := seen[l]; dup {
			t.Fatalf("addresses %d and %d map to same loc %+v", prev, a, l)
		}
		seen[l] = a
	}
}
