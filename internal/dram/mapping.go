package dram

import (
	"fmt"
	"math/bits"
)

// Geometry describes the physical organization of a memory node.
//
// Every field below the channel (Ranks, BankGroups, Banks, Rows and
// RowBytes) must be a power of two, and Validate rejects a geometry whose
// fields are not. The rule keeps a single decode path: in the RoRaBgBaCoCh
// layout each of those fields then owns its own bit range of the
// channel-local address, so the controller decodes every line with one
// divide by the channel count, which may be any positive number, and
// shifts and masks below it. Geometries come from code, and every one the
// simulator builds meets the rule.
type Geometry struct {
	Channels   int
	Ranks      int
	BankGroups int
	Banks      int // banks per bank group
	Rows       int
	RowBytes   int // bytes per row (page size of the DRAM array)
	// InterleaveBytes is the channel-interleave granularity: consecutive
	// chunks of this size round-robin across channels. Zero means the
	// 64 B access unit (fine-grained striping); memory-pooled systems
	// typically interleave at page granularity so row vectors stay within
	// one channel and enjoy row-buffer hits.
	InterleaveBytes int
}

// Table2Geometry returns the per-device organization from Table II of the
// paper (4 channels, 2 ranks, 64 GB per DIMM), scaled so that simulated
// footprints stay laptop-sized while the channel/rank/bank parallelism the
// experiments exercise is preserved.
func Table2Geometry() Geometry {
	return Geometry{
		Channels:   4,
		Ranks:      2,
		BankGroups: 4,
		Banks:      4,
		Rows:       1 << 16,
		RowBytes:   8192,
	}
}

// The widths a queued request narrows its decoded fields to: the row is an
// int32, the flattened bank index a uint16 and the rank a uint8.
const (
	maxRows  = 1 << 31
	maxBanks = 1 << 16 // Ranks × BankGroups × Banks per channel
	maxRanks = 1 << 8
)

// Validate reports an error for degenerate geometries, for fields below the
// channel that are not powers of two, and for fields past the widths a
// queued request stores.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.Ranks <= 0 || g.BankGroups <= 0 || g.Banks <= 0 ||
		g.Rows <= 0 || g.RowBytes <= 0 {
		return fmt.Errorf("dram: geometry fields must all be positive: %+v", g)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"Ranks", g.Ranks}, {"BankGroups", g.BankGroups}, {"Banks", g.Banks}, {"Rows", g.Rows}, {"RowBytes", g.RowBytes}} {
		if f.v&(f.v-1) != 0 {
			return fmt.Errorf("dram: %s (%d) must be a power of two", f.name, f.v)
		}
	}
	if g.RowBytes%accessBytes != 0 {
		return fmt.Errorf("dram: RowBytes (%d) must be a multiple of the %d-byte access unit", g.RowBytes, accessBytes)
	}
	if g.InterleaveBytes != 0 && (g.InterleaveBytes%accessBytes != 0 || g.RowBytes%g.InterleaveBytes != 0) {
		return fmt.Errorf("dram: InterleaveBytes (%d) must divide RowBytes and be a multiple of %d", g.InterleaveBytes, accessBytes)
	}
	if g.Rows > maxRows {
		return fmt.Errorf("dram: Rows (%d) exceeds %d, the most a request's int32 row holds", g.Rows, maxRows)
	}
	if g.Ranks > maxRanks {
		return fmt.Errorf("dram: Ranks (%d) exceeds %d, the most a request's uint8 rank holds", g.Ranks, maxRanks)
	}
	// Ranks is bounded above, so the product cannot overflow once both
	// factors are.
	if g.BankGroups > maxBanks || g.Banks > maxBanks || g.TotalBanks() > maxBanks {
		return fmt.Errorf("dram: Ranks×BankGroups×Banks (%d×%d×%d) exceeds %d, the most a request's uint16 bank index holds",
			g.Ranks, g.BankGroups, g.Banks, maxBanks)
	}
	return nil
}

// interleave returns the effective channel-interleave granularity.
func (g Geometry) interleave() uint64 {
	if g.InterleaveBytes == 0 {
		return accessBytes
	}
	return uint64(g.InterleaveBytes)
}

// Capacity returns the total byte capacity of the node.
func (g Geometry) Capacity() int64 {
	return int64(g.Channels) * int64(g.Ranks) * int64(g.BankGroups) *
		int64(g.Banks) * int64(g.Rows) * int64(g.RowBytes)
}

// TotalBanks returns the number of independently schedulable banks per
// channel.
func (g Geometry) TotalBanks() int { return g.Ranks * g.BankGroups * g.Banks }

// accessBytes is the access granularity: one 64 B cache line per request,
// matching both the CPU line size and the CXL.mem flit payload granularity.
const accessBytes = 64

// Loc identifies one access-granularity block in the device hierarchy.
type Loc struct {
	Channel int
	Rank    int
	Group   int
	Bank    int
	Row     int
	Col     int // column index in accessBytes units within the row
}

// lineDecoder is a validated Geometry's RoRaBgBaCoCh layout reduced to one
// divide and shifts. The channel is the interleave chunk modulo the channel
// count. Above a row's bytes in the channel-local address sit bank, bank
// group and rank in adjacent bits, so the flattened bank index is one mask,
// and the row sits above them.
type lineDecoder struct {
	ilShift   uint   // log2 of the interleave granularity
	ilMask    uint64 // byte offset within an interleave chunk
	channels  uint64
	colShift  uint   // log2(RowBytes): channel-local address to bank bits
	bankMask  uint64 // TotalBanks-1: rank, group and bank bits together
	rankShift uint   // log2(BankGroups×Banks): flattened bank to rank
	rowShift  uint   // colShift + log2(TotalBanks)
	rowMask   uint64 // Rows-1: rows wrap, so addresses past capacity alias
}

func log2(n uint64) uint { return uint(bits.TrailingZeros64(n)) }

// newLineDecoder precomputes g's shifts and masks; g must pass Validate.
func newLineDecoder(g Geometry) lineDecoder {
	il := g.interleave()
	banks := uint64(g.TotalBanks())
	return lineDecoder{
		ilShift:   log2(il),
		ilMask:    il - 1,
		channels:  uint64(g.Channels),
		colShift:  log2(uint64(g.RowBytes)),
		bankMask:  banks - 1,
		rankShift: log2(uint64(g.BankGroups * g.Banks)),
		rowShift:  log2(uint64(g.RowBytes)) + log2(banks),
		rowMask:   uint64(g.Rows) - 1,
	}
}

// split returns addr's channel and its byte address within that channel.
// It holds the line path's one divide.
func (d *lineDecoder) split(addr uint64) (ch int, local uint64) {
	chunk := addr >> d.ilShift
	q := chunk / d.channels
	return int(chunk - q*d.channels), q<<d.ilShift | addr&d.ilMask
}

// decode returns addr's channel, flattened bank index, rank and row.
func (d *lineDecoder) decode(addr uint64) (ch int, bank uint16, rank uint8, row int32) {
	ch, local := d.split(addr)
	b := (local >> d.colShift) & d.bankMask
	return ch, uint16(b), uint8(b >> d.rankShift), int32((local >> d.rowShift) & d.rowMask)
}

// chunkLines returns how many lines 64 B apart, from addr on, begin in
// addr's interleave chunk; all of them decode alike.
func (d *lineDecoder) chunkLines(addr uint64) int {
	return int((d.ilMask-addr&d.ilMask)/accessBytes) + 1
}

// Map decodes a physical byte address into a device location using a
// channel-interleaved RoRaBgBaCoCh layout: consecutive InterleaveBytes
// chunks round-robin across channels; within a channel, addresses walk
// columns within a row, then banks, bank groups, ranks, and finally rows.
// Rows wrap, so addresses past Capacity alias. Map is a view over the
// decoder the controller runs on every line; g must pass Validate.
func (g Geometry) Map(addr uint64) Loc {
	d := newLineDecoder(g)
	ch, local := d.split(addr)
	_, bank, rank, row := d.decode(addr)
	return Loc{
		Channel: ch,
		Rank:    int(rank),
		Group:   int(bank>>log2(uint64(g.Banks))) & (g.BankGroups - 1),
		Bank:    int(bank) & (g.Banks - 1),
		Row:     int(row),
		Col:     int(local/accessBytes) & (g.RowBytes/accessBytes - 1),
	}
}
