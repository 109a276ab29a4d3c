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
	"pifsrec/internal/isa"
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
	sim.NoWindowHooks

	eng *sim.Engine
	cfg Config

	Core   *pifs.Core  // nil when the CNV bit is clear
	Buffer *osb.Buffer // nil without an on-switch buffer

	devices []*cxl.Type3Device
	dsp     []*cxl.Duplex

	peers map[*Switch]*cxl.Duplex // this -> peer direction bundles

	xlatFree sim.Tick // translation-unit occupancy (XlatPerFetchNS > 0)

	// stallUntil parks the decode stage during a switch-stall fault window:
	// arriving work is processed no earlier than the window's close.
	stallUntil sim.Tick

	// msg is the sharded-fabric message machinery (nil in legacy closure
	// mode); see messages.go.
	msg *msgState

	stats Stats
}

// New builds a switch. Route is required.
func New(eng *sim.Engine, cfg Config) *Switch {
	cfg.fillDefaults()
	if cfg.Route == nil {
		panic("fabric: switch without a Route")
	}
	s := &Switch{eng: eng, cfg: cfg, peers: make(map[*Switch]*cxl.Duplex)}
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

// DSPBandwidthGBs returns the resolved per-downstream-port bandwidth, so
// external wiring (the sharded engine builds its own DSP and peer links)
// uses the same figure as the switch's internal defaults.
func (s *Switch) DSPBandwidthGBs() float64 { return s.cfg.DSPBandwidthGBs }

// Stats returns a snapshot of counters.
func (s *Switch) Stats() Stats { return s.stats }

// ComponentGroup returns the switch's placement group (sim.Component). The
// group comes from BindNet's wiring, so registering an unbound switch would
// silently seed group 0 — fail loudly instead, like the other ordering
// contracts in this file.
func (s *Switch) ComponentGroup() int32 {
	if s.msg == nil {
		panic(fmt.Sprintf("fabric: switch %d ComponentGroup before BindNet", s.cfg.ID))
	}
	return s.msg.net.Group
}

// CostWeight is the switch's static placement weight: decode/VCS front-end
// plus a share per downstream port, plus the Process Core and buffer when
// present — the fan-in a switch serves is what makes it expensive.
func (s *Switch) CostWeight() float64 {
	w := 2.0
	if s.msg != nil {
		w += 0.5 * float64(len(s.msg.net.DevDown))
	}
	if s.Core != nil {
		w += 2
	}
	if s.Buffer != nil {
		w++
	}
	return w
}

// AttachDevice wires a Type 3 device behind a dedicated downstream port and
// returns its device index on this switch.
func (s *Switch) AttachDevice(dev *cxl.Type3Device) int {
	idx := len(s.devices)
	s.devices = append(s.devices, dev)
	link := cxl.NewDuplex(s.eng, fmt.Sprintf("sw%d.dsp%d", s.cfg.ID, idx),
		s.cfg.DSPBandwidthGBs, cxl.PortOverheadNS)
	s.dsp = append(s.dsp, link)
	return idx
}

// Devices returns the number of attached devices.
func (s *Switch) Devices() int { return len(s.devices) }

// Device returns an attached device by index.
func (s *Switch) Device(i int) *cxl.Type3Device { return s.devices[i] }

// DSPLink returns the downstream duplex for a device (for stats inspection).
func (s *Switch) DSPLink(i int) *cxl.Duplex { return s.dsp[i] }

// Connect wires this switch to a peer with a duplex inter-switch link in
// each direction (fully connected fabrics call this pairwise). The link
// carries the extra forwarding latency of §VI-C4.
func (s *Switch) Connect(peer *Switch) {
	if peer == s {
		panic("fabric: switch connected to itself")
	}
	if _, dup := s.peers[peer]; dup {
		return
	}
	s.peers[peer] = cxl.NewDuplex(s.eng, fmt.Sprintf("sw%d-sw%d", s.cfg.ID, peer.cfg.ID),
		s.cfg.DSPBandwidthGBs, cxl.SwitchForwardNS)
	peer.Connect(s)
}

// deviceRead fetches a row vector from an attached device through its DSP:
// the repacked instruction goes down (one 16 B slot), the device performs
// the DRAM accesses, and the data returns up the port. done fires when the
// vector is available inside the switch.
func (s *Switch) deviceRead(dev int, devAddr uint64, vecBytes int, done func(at sim.Tick)) {
	if dev < 0 || dev >= len(s.devices) {
		panic(fmt.Sprintf("fabric: switch %d has no device %d", s.cfg.ID, dev))
	}
	link := s.dsp[dev]
	device := s.devices[dev]
	link.Down.Send(isa.SlotBytes, func(sim.Tick) {
		device.AccessVector(devAddr, vecBytes, false, func(sim.Tick) {
			link.Up.Send(vecBytes, done)
		})
	})
}

// BypassRead serves a standard (non-PIFS) MemRd arriving at the switch: the
// MemOpcode checker sends it straight to the VCS, the owning device's DSP
// fetches the data, and done fires when the vector is back at the switch's
// upstream side, ready for the host link. This is the Pond-style data path.
func (s *Switch) BypassRead(addr uint64, vecBytes int, done func(at sim.Tick)) {
	s.stats.BypassReads++
	dev, devAddr := s.cfg.Route(addr)
	s.eng.After(s.cfg.BypassNS, func() {
		s.deviceRead(dev, devAddr, vecBytes, done)
	})
}

// SubmitSlot decodes one encoded M2S slot and dispatches it, exercising the
// real instruction path: standard reads bypass, DataFetch/Configuration go
// to the Process Core. Results surface through the callbacks registered via
// the cluster's Configure. For MemRd, done receives the data-at-switch time.
func (s *Switch) SubmitSlot(slot isa.Slot, done func(at sim.Tick)) error {
	in, err := isa.Decode(slot)
	if err != nil {
		return err
	}
	switch {
	case in.Opcode == isa.OpMemRd:
		s.BypassRead(in.Addr(), in.VecSize.Bytes(), done)
		return nil
	case in.Opcode == isa.OpConfig:
		return fmt.Errorf("fabric: Configuration slots need a result callback; use PIFSConfigure")
	case in.Opcode == isa.OpDataFetch:
		s.PIFSFetch(pifs.ClusterKey{SPID: in.SPID, SumTag: in.SumTag}, in.Addr(), in.VecSize.Bytes())
		return nil
	default:
		return fmt.Errorf("fabric: unsupported opcode %v", in.Opcode)
	}
}

// PIFSConfigure programs an accumulation cluster (a host Configuration
// instruction): candidates row vectors will arrive for key; onResult fires
// when the accumulated sum has been dispatched into the egress queue.
func (s *Switch) PIFSConfigure(key pifs.ClusterKey, candidates, vecBytes int, resultAddr uint64, onResult func(at sim.Tick)) {
	if s.Core == nil {
		panic(fmt.Sprintf("fabric: switch %d has no process core", s.cfg.ID))
	}
	s.stats.PIFSConfigs++
	s.eng.After(s.cfg.DecodeNS, func() {
		s.Core.Configure(key, candidates, vecBytes, resultAddr, onResult)
	})
}

// PIFSFetch handles a host DataFetch instruction: decode, instruction
// repacking (opcode -> MemRd, SPID -> switch), on-switch buffer lookup, and
// on a miss the DSP round trip; the returning vector folds into the
// cluster's partial sum on the Process Core.
func (s *Switch) PIFSFetch(key pifs.ClusterKey, addr uint64, vecBytes int) {
	if s.Core == nil {
		panic(fmt.Sprintf("fabric: switch %d has no process core", s.cfg.ID))
	}
	s.stats.PIFSFetches++
	s.eng.After(s.fetchDelay(), func() {
		if s.Buffer != nil && s.Buffer.Access(addr, vecBytes) {
			s.stats.BufferHits++
			s.eng.After(s.Buffer.LatencyNS(), func() {
				s.Core.Data(key)
			})
			return
		}
		if s.Buffer != nil {
			s.stats.BufferMisses++
		}
		dev, devAddr := s.cfg.Route(addr)
		s.deviceRead(dev, devAddr, vecBytes, func(sim.Tick) {
			s.Core.Data(key)
		})
	})
}

// FaultStall opens (or extends) a stall window: message-mode work arriving
// before until is decoded at the window's close instead of on arrival. Call
// from a calendar event on the switch's group engine.
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

// ForwardFetch executes a row fetch on a peer switch close to the data
// (§IV-C1): the instruction crosses the inter-switch link, the peer fetches
// from its local device — using its own core and buffer when present
// (CNV=1), or raw bypass otherwise (§IV-C2) — and the partial result
// returns over the link. done fires when the vector is available on this
// switch, ready to fold into the local cluster.
//
// subKey identifies the peer-side sub-accumulation; callers give each
// (cluster, peer) pair a distinct sub-cluster and fold the returned partial
// as a single candidate of the local cluster (Sub-SumCandidateCount).
func (s *Switch) ForwardFetch(peer *Switch, subKey pifs.ClusterKey, addrs []uint64, vecBytes int, done func(at sim.Tick)) {
	link, ok := s.peers[peer]
	if !ok {
		panic(fmt.Sprintf("fabric: switch %d not connected to switch %d", s.cfg.ID, peer.cfg.ID))
	}
	if len(addrs) == 0 {
		panic("fabric: ForwardFetch with no addresses")
	}
	s.stats.Forwarded++

	// The request instructions cross to the peer (one slot per row).
	link.Down.Send(len(addrs)*isa.SlotBytes, func(sim.Tick) {
		peer.stats.Received++
		returnPartial := func(at sim.Tick) {
			// One partial vector returns over the inter-switch link.
			link.Up.Send(vecBytes, done)
		}
		if peer.HasCore() {
			// The peer accumulates locally and ships one partial sum.
			peer.PIFSConfigure(subKey, len(addrs), vecBytes, 0, returnPartial)
			for _, a := range addrs {
				peer.PIFSFetch(subKey, a, vecBytes)
			}
			return
		}
		// CNV=0 peer: raw reads return individually; this switch's side
		// counts the full set as one candidate, so completion is when the
		// last raw vector has crossed back.
		remaining := len(addrs)
		for _, a := range addrs {
			peer.BypassRead(a, vecBytes, func(sim.Tick) {
				link.Up.Send(vecBytes, func(at2 sim.Tick) {
					remaining--
					if remaining == 0 {
						done(at2)
					}
				})
			})
		}
	})
}
