// Package fabric models the CXL fabric switch (§II-B2, §IV-A): virtual CXL
// switches (VCS) with PPB/vPPB port bridges, the FM endpoint extension with
// its memory-indexing lookup table, the MemOpcode checker that routes
// standard traffic down a bypass path and PIFS instructions to the Process
// Core, per-device downstream-port links, the optional on-switch buffer, and
// multi-switch instruction forwarding for scaled-out fabrics (§IV-C).
package fabric

import (
	"fmt"

	"pifsrec/internal/cxl"
	"pifsrec/internal/osb"
	"pifsrec/internal/pifs"
	"pifsrec/internal/sim"
)

// Route resolves a global physical address to a device index and
// device-local address — the FM endpoint extension's memory-indexing
// "lookup table" (§VI-A).
type Route func(addr uint64) (dev int, devAddr uint64)

// Config parameterizes a switch.
type Config struct {
	ID     int
	PortID uint16 // the SPID written into repacked instructions
	// DecodeNS is the instruction decoder + MemOpcode checker latency.
	DecodeNS sim.Tick
	// BypassNS is the VCS forwarding latency for standard instructions.
	BypassNS sim.Tick
	// HasCore is the CNV bit: whether this switch carries a Process Core
	// (§IV-C2 allows compute-less switches in a fabric).
	HasCore bool
	Core    pifs.Config
	// BufferBytes enables the on-switch buffer when non-zero.
	BufferBytes  int
	BufferPolicy osb.Policy
	// DSPBandwidthGBs is the per-downstream-port bandwidth (Table II:
	// 64 GB/s x16); zero selects the default.
	DSPBandwidthGBs float64
	// XlatPerFetchNS serializes every PIFS fetch through an additional
	// memory-translation unit — BEACON's custom DIMM-instruction path needs
	// one and it costs throughput, not just latency (§II-B2). Zero (the
	// PIFS-Rec design) has no such unit.
	XlatPerFetchNS sim.Tick
	Route          Route
}

func (c *Config) fillDefaults() {
	if c.DecodeNS == 0 {
		c.DecodeNS = 2
	}
	if c.BypassNS == 0 {
		c.BypassNS = 5
	}
	if c.DSPBandwidthGBs == 0 {
		c.DSPBandwidthGBs = cxl.PCIe5x16GBs
	}
	if c.BufferPolicy == "" {
		c.BufferPolicy = osb.HTR
	}
}

// Stats counts switch activity.
type Stats struct {
	BypassReads  int64
	PIFSFetches  int64
	PIFSConfigs  int64
	BufferHits   int64
	BufferMisses int64
	Forwarded    int64 // fetches sent to peer switches
	Received     int64 // fetches executed on behalf of peers

	// Fault-injection accounting (zero without a fault plan).
	FaultTimeouts int64 // device reads whose reply timer expired
	FaultRetries  int64 // timed-out reads re-issued with backoff
	AbortedReads  int64 // reads abandoned after the retry budget
	StaleReplies  int64 // late replies dropped by the generation check
}

// Switch is one fabric switch instance.
type Switch struct {
	eng *sim.Engine
	cfg Config

	Core   *pifs.Core  // nil when the CNV bit is clear
	Buffer *osb.Buffer // nil without an on-switch buffer

	xlatFree sim.Tick // translation-unit occupancy (XlatPerFetchNS > 0)

	// stallUntil parks the decode stage during a switch-stall fault window:
	// arriving work is processed no earlier than the window's close.
	stallUntil sim.Tick

	// msg is the link-protocol state BindNet installs (see messages.go);
	// bound records that it ran.
	msg   msgState
	bound bool

	stats Stats
}

// New builds a switch. Route is required.
func New(eng *sim.Engine, cfg Config) *Switch {
	cfg.fillDefaults()
	if cfg.Route == nil {
		panic("fabric: switch without a Route")
	}
	s := &Switch{eng: eng, cfg: cfg}
	if cfg.HasCore {
		s.Core = pifs.New(eng, cfg.Core)
	}
	if cfg.BufferBytes != 0 {
		s.Buffer = osb.New(cfg.BufferBytes, cfg.BufferPolicy)
	}
	return s
}

// ID returns the switch identifier.
func (s *Switch) ID() int { return s.cfg.ID }

// PortID returns the switch's fabric port id.
func (s *Switch) PortID() uint16 { return s.cfg.PortID }

// HasCore reports the CNV bit.
func (s *Switch) HasCore() bool { return s.Core != nil }

// DSPBandwidthGBs returns the resolved per-downstream-port bandwidth, so the
// wiring that builds the switch's DSP and peer links uses the same figure as
// the switch's defaults.
func (s *Switch) DSPBandwidthGBs() float64 { return s.cfg.DSPBandwidthGBs }

// Stats returns a snapshot of counters.
func (s *Switch) Stats() Stats { return s.stats }

// ComponentGroup returns the switch's placement group (sim.Component). The
// group comes from BindNet's wiring, so registering an unbound switch would
// silently seed group 0 — fail loudly instead, like the other ordering
// contracts in messages.go.
func (s *Switch) ComponentGroup() int32 {
	if !s.bound {
		panic(fmt.Sprintf("fabric: switch %d ComponentGroup before BindNet", s.cfg.ID))
	}
	return s.msg.net.Group
}

// CostWeight is the switch's static placement weight: decode/VCS front-end
// plus a share per downstream port, plus the Process Core and buffer when
// present — the fan-in a switch serves is what makes it expensive.
func (s *Switch) CostWeight() float64 {
	w := 2.0 + 0.5*float64(len(s.msg.net.DevDown))
	if s.Core != nil {
		w += 2
	}
	if s.Buffer != nil {
		w++
	}
	return w
}

// FaultStall opens (or extends) a stall window: work arriving before until
// is decoded at the window's close instead of on arrival. Call from a
// calendar event on the switch's group engine.
func (s *Switch) FaultStall(until sim.Tick) {
	if until > s.stallUntil {
		s.stallUntil = until
	}
}

// stalledNow returns the earliest time arriving work may start decoding:
// the engine's now, pushed past any open stall window.
func (s *Switch) stalledNow() sim.Tick {
	now := s.eng.Now()
	if s.stallUntil > now {
		now = s.stallUntil
	}
	return now
}

// fetchDelay returns a DataFetch's decode latency, serializing through the
// additional memory-translation unit when the configuration has one
// (BEACON's custom DIMM-instruction path, §II-B2).
func (s *Switch) fetchDelay() sim.Tick {
	delay := s.cfg.DecodeNS
	if s.cfg.XlatPerFetchNS > 0 {
		start := s.eng.Now()
		if s.xlatFree > start {
			start = s.xlatFree
		}
		s.xlatFree = start + s.cfg.XlatPerFetchNS
		delay = s.xlatFree - s.eng.Now() + s.cfg.DecodeNS
	}
	return delay
}

// InvalidateBufferRange drops every buffered row vector in [start, end) —
// the migration hook's single range-granular call replacing a per-row loop.
// It returns the number of vectors dropped; no-op without a buffer.
func (s *Switch) InvalidateBufferRange(start, end uint64) int {
	if s.Buffer == nil {
		return 0
	}
	return s.Buffer.InvalidateRange(start, end)
}
