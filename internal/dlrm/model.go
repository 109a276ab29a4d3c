package dlrm

import "fmt"

// Layout places a model's embedding tables in a flat simulated address
// space starting at Base, one table after another, rows contiguous.
type Layout struct {
	Base      uint64
	RowBytes  int
	TableRows int64
	Tables    int
}

// NewLayout derives the layout for a config.
func NewLayout(cfg ModelConfig, base uint64) Layout {
	return Layout{Base: base, RowBytes: cfg.RowBytes(), TableRows: cfg.EmbRows, Tables: cfg.Tables}
}

// RowAddr returns the byte address of a row vector.
func (l Layout) RowAddr(table int32, row uint32) uint64 {
	if int(table) >= l.Tables || int64(row) >= l.TableRows {
		panic(fmt.Sprintf("dlrm: layout access (%d,%d) outside %dx%d", table, row, l.Tables, l.TableRows))
	}
	tableBytes := uint64(l.TableRows) * uint64(l.RowBytes)
	return l.Base + uint64(table)*tableBytes + uint64(row)*uint64(l.RowBytes)
}

// Footprint returns the total bytes the layout spans.
func (l Layout) Footprint() int64 {
	return int64(l.Tables) * l.TableRows * int64(l.RowBytes)
}
