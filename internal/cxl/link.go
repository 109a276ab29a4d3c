// Package cxl models the Compute Express Link plumbing the paper builds on:
// FlexBus links over the PCIe 5.0 physical layer, Type 3 memory expander
// devices backed by the dram package, and the bias table that arbitrates
// host- versus device-bias coherence for pooled regions (§II-B).
package cxl

import (
	"fmt"

	"pifsrec/internal/sim"
)

// Link bandwidth and latency constants used across the repository.
const (
	// PCIe5x16GBs is the usable bandwidth of a x16 PCIe 5.0 FlexBus port:
	// "32 GT/s per lane, translating to approximately 64GB/s when utilizing
	// 16 lanes" (§II-B1). Table II uses the same figure for each fabric
	// switch downstream port.
	PCIe5x16GBs = 64.0

	// AccessPenaltyNS is the extra latency of a CXL access over local DRAM:
	// Table II, "CXL Access Penalty over DRAM: 100 ns", consistent with TPP.
	AccessPenaltyNS = 100

	// PortOverheadNS is the per-transfer I/O-port and retimer cost inside
	// the CXL path. The paper attributes ~37% of a 270 ns pool fetch to
	// "frequent CXL I/O port transfers and retimer delays" (§IV-A4), i.e.
	// about 100 ns; half is paid on each traversal direction.
	PortOverheadNS = 50

	// SwitchForwardNS is the latency added when data crosses between two
	// fabric switches in a scaled-out fabric: "we add an extra 100 ns
	// latency when data needs to be transferred between them" (§VI-C4).
	SwitchForwardNS = 100
)

// Link is a unidirectional serialized transfer pipe with finite bandwidth
// and fixed propagation latency. Transfers queue behind one another on the
// serialization stage (modelling lane occupancy) and then propagate.
//
// A link is bound (Bind) to one destination component and delivers each
// transfer as a value-typed message through the sending group's mailbox
// (SendMsg). Its state (freeAt, stats) is owned by the sending component's
// group, and delivery order across groups is fixed by the sharded engine's
// (time, port, seq) merge, so results do not depend on how groups are
// placed onto workers.
type Link struct {
	eng        *sim.Engine
	name       string
	bytesPerNS float64
	propNS     sim.Tick
	freeAt     sim.Tick
	// downUntil is the end of the current fault window: transfers starting
	// inside it are delayed to its close (the link layer retrains and
	// replays transparently — slow, never lossy). Zero when healthy.
	downUntil sim.Tick

	// Destination wiring installed by Bind.
	out         *sim.Outbox
	port        int32
	dstGroup    int32
	dstEndpoint int32

	stats LinkStats
}

// LinkStats summarizes link activity.
type LinkStats struct {
	Transfers  int64
	BytesMoved int64
	BusyNS     sim.Tick // serialization occupancy
	WaitNS     sim.Tick // time transfers spent queued for the lanes
	// FaultStallNS / FaultedTransfers account transfers delayed by a fault
	// window (link-flap injection).
	FaultStallNS     sim.Tick
	FaultedTransfers int64
}

// NewLink builds a link with bandwidth in GB/s (== bytes/ns) and one-way
// propagation latency in nanoseconds.
func NewLink(eng *sim.Engine, name string, gbps float64, propNS sim.Tick) *Link {
	if gbps <= 0 {
		panic(fmt.Sprintf("cxl: link %s with non-positive bandwidth %v", name, gbps))
	}
	if propNS < 0 {
		panic(fmt.Sprintf("cxl: link %s with negative propagation %d", name, propNS))
	}
	return &Link{eng: eng, name: name, bytesPerNS: gbps, propNS: propNS}
}

// Name returns the link's label.
func (l *Link) Name() string { return l.name }

// Stats returns a snapshot of accumulated statistics.
func (l *Link) Stats() LinkStats { return l.stats }

// serNS returns the serialization time for a payload, at least 1 ns so that
// even header-only flits occupy the lanes.
func (l *Link) serNS(bytes int) sim.Tick {
	ns := sim.Tick(float64(bytes) / l.bytesPerNS)
	if ns < 1 {
		ns = 1
	}
	return ns
}

// Bind wires the link's destination: SendMsg posts to out with the given
// port id, destined for dstEndpoint in placement group dstGroup. Call once
// at wiring time, from the construction path that also fixes port
// numbering.
func (l *Link) Bind(out *sim.Outbox, port, dstGroup, dstEndpoint int32) {
	l.out = out
	l.port = port
	l.dstGroup = dstGroup
	l.dstEndpoint = dstEndpoint
}

// SendMsg transfers bytes over the link and posts p (plus an optional addrs
// span, copied) for delivery at the arrival time to the bound destination.
// It returns the arrival time. The link must be Bound.
func (l *Link) SendMsg(bytes int, p sim.Payload, addrs []uint64) sim.Tick {
	if l.out == nil {
		panic(fmt.Sprintf("cxl: link %s SendMsg without Bind", l.name))
	}
	if bytes <= 0 {
		panic(fmt.Sprintf("cxl: link %s send of %d bytes", l.name, bytes))
	}
	now := l.eng.Now()
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	if l.downUntil > start {
		l.stats.FaultStallNS += l.downUntil - start
		l.stats.FaultedTransfers++
		start = l.downUntil
	}
	ser := l.serNS(bytes)
	l.freeAt = start + ser
	arrive := l.freeAt + l.propNS

	l.stats.Transfers++
	l.stats.BytesMoved += int64(bytes)
	l.stats.BusyNS += ser
	l.stats.WaitNS += start - now
	l.out.Post(l.port, l.dstGroup, l.dstEndpoint, arrive, p, addrs)
	return arrive
}

// FaultDown opens (or extends) a fault window on the link: transfers
// starting before until are pushed to it. Call from a calendar event on the
// link owner's group engine so the transition is an ordinary deterministic
// event.
func (l *Link) FaultDown(until sim.Tick) {
	if until > l.downUntil {
		l.downUntil = until
	}
}

// Utilization returns the fraction of [0, now] the serialization stage was
// busy, in [0, 1].
func (l *Link) Utilization() float64 {
	now := l.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(l.stats.BusyNS) / float64(now)
}
