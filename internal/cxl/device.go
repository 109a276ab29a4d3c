package cxl

import (
	"fmt"

	"pifsrec/internal/dram"
	"pifsrec/internal/sim"
)

// Type3Device is a CXL memory expander: DDR DIMMs behind a CXL controller
// (§II-B1). It serves row-vector reads as batches of 64 B line accesses and
// adds the CXL controller's share of the access penalty on top of raw DRAM
// service time.
type Type3Device struct {
	// ID is the device index within its pool; PortID is the fabric port the
	// device is bound to (its cacheID when recognized by the FM endpoint).
	ID     int
	PortID uint16

	eng *sim.Engine
	ctl *dram.Controller
	// ctrlNS is the CXL controller processing overhead applied to each
	// access on the device side.
	ctrlNS sim.Tick

	// Fault windows (injected as calendar events on the device's group
	// engine). While downUntil is in the future the device drops requests on
	// the floor — the requester's timeout/retry machinery recovers or aborts.
	// While slowUntil is in the future each access pays slowExtraNS more
	// controller overhead (latency-inflation fault).
	downUntil   sim.Tick
	slowUntil   sim.Tick
	slowExtraNS sim.Tick

	// Link wiring: reads arrive as KindDevRead envelopes and the vector
	// returns as a KindDevData message on reply. fnDone is stored once so
	// completions allocate nothing.
	reply    *Link
	vecBytes int
	fnDone   func(int32, sim.Tick)

	group int32 // placement group (sim.Component)

	stats DeviceStats
}

// Device message kinds (switch <-> device over the DSP links).
const (
	// KindDevRead requests a row-vector read: A=device-local address,
	// U0=requester token (echoed back verbatim).
	KindDevRead uint16 = 0x10
	// KindDevData announces the vector at the requester: U0=token.
	KindDevData uint16 = 0x11
)

// DeviceStats counts device-side activity. The fabric's embedding-spreading
// policy (§IV-B3) reads these to find overloaded devices.
type DeviceStats struct {
	Reads int64 // 64 B line reads served
	// Dropped counts requests discarded while the device was in a fail
	// window (device-fail injection).
	Dropped int64
}

// DeviceConfig parameterizes a Type 3 expander.
type DeviceConfig struct {
	ID       int
	PortID   uint16
	Geometry dram.Geometry
	Timing   dram.Timing
	// CtrlNS is the device-side controller overhead per access; the default
	// when zero is half the CXL access penalty (the other half is paid in
	// the link path's port overheads).
	CtrlNS sim.Tick
	// Group is the placement group the device (and its DRAM controller)
	// lives on in a sharded simulation.
	Group int32
}

// NewType3 builds a memory expander device.
func NewType3(eng *sim.Engine, cfg DeviceConfig) *Type3Device {
	ctrl := cfg.CtrlNS
	if ctrl == 0 {
		ctrl = AccessPenaltyNS / 2
	}
	return &Type3Device{
		ID:     cfg.ID,
		PortID: cfg.PortID,
		eng:    eng,
		ctl:    dram.NewController(eng, cfg.Geometry, cfg.Timing),
		ctrlNS: ctrl,
		group:  cfg.Group,
	}
}

// ComponentGroup returns the device's placement group (sim.Component).
func (d *Type3Device) ComponentGroup() int32 { return d.group }

// CostWeight is the device's static placement weight: the front-end plus
// its DRAM controller's channels, so the cost-balanced bin-packing sees
// memory nodes as the heavy groups they are.
func (d *Type3Device) CostWeight() float64 { return 1 + d.ctl.CostWeight() }

// Capacity returns the device's byte capacity.
func (d *Type3Device) Capacity() int64 { return d.ctl.Geometry().Capacity() }

// Stats returns device counters.
func (d *Type3Device) Stats() DeviceStats { return d.stats }

// DRAMStats returns the backing DRAM controller statistics.
func (d *Type3Device) DRAMStats() dram.Stats { return d.ctl.Stats() }

// Bind wires the device's reply path: vector reads requested via HandleMsg
// return as KindDevData messages of vecBytes on reply (the device-owned DSP
// up-link). vecBytes must be a positive multiple of the 64 B line size; a
// bad size fails here, at wiring time, rather than on the first read.
func (d *Type3Device) Bind(reply *Link, vecBytes int) {
	if vecBytes <= 0 || vecBytes%64 != 0 {
		panic(fmt.Sprintf("cxl: device %d vector size %d not a positive multiple of 64", d.ID, vecBytes))
	}
	d.reply = reply
	d.vecBytes = vecBytes
	d.fnDone = func(tok int32, _ sim.Tick) {
		d.reply.SendMsg(d.vecBytes, sim.Payload{Kind: KindDevData, U0: tok}, nil)
	}
}

// HandleMsg serves one KindDevRead request: the vector's line requests go
// down as a single controller batch and the data message is sent when the
// last beat (plus controller overhead) completes. Completion records are
// value-typed — the requester's token threads through the DRAM batch slot
// and back into the reply payload, no closures.
func (d *Type3Device) HandleMsg(env sim.Envelope) {
	if env.P.Kind != KindDevRead {
		panic(fmt.Sprintf("cxl: device %d got message kind %#x", d.ID, env.P.Kind))
	}
	if d.reply == nil {
		panic(fmt.Sprintf("cxl: device %d HandleMsg without Bind", d.ID))
	}
	if d.downUntil > d.eng.Now() {
		d.stats.Dropped++
		return
	}
	addr := env.P.A
	if end := addr + uint64(d.vecBytes); end > uint64(d.Capacity()) || end < addr {
		panic(fmt.Sprintf("cxl: device %d access [%#x, %#x) beyond capacity %#x", d.ID, addr, end, d.Capacity()))
	}
	d.stats.Reads += int64(d.vecBytes / 64)
	extra := d.ctrlNS
	if d.slowUntil > d.eng.Now() {
		extra += d.slowExtraNS
	}
	d.ctl.SubmitRange(addr, d.vecBytes, false, extra, d.fnDone, env.P.U0)
}

// FaultDown opens (or extends) a fail window: requests arriving before until
// are silently dropped, leaving recovery to the requester's retry protocol.
func (d *Type3Device) FaultDown(until sim.Tick) {
	if until > d.downUntil {
		d.downUntil = until
	}
}

// FaultSlow opens (or extends) a latency-inflation window: accesses arriving
// before until pay extraNS additional controller overhead.
func (d *Type3Device) FaultSlow(until sim.Tick, extraNS sim.Tick) {
	if until > d.slowUntil {
		d.slowUntil = until
	}
	if extraNS > d.slowExtraNS {
		d.slowExtraNS = extraNS
	}
}

// FaultChannelOffline takes one backing DRAM channel offline until the given
// time: its queued and arriving requests sit until the channel returns.
func (d *Type3Device) FaultChannelOffline(ch int, until sim.Tick) {
	d.ctl.SetChannelOffline(ch, until)
}

// String describes the device.
func (d *Type3Device) String() string {
	return fmt.Sprintf("cxl.Type3(id=%d port=%d cap=%.1fGB)", d.ID, d.PortID,
		float64(d.Capacity())/(1<<30))
}
