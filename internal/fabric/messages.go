// The switch's link protocol: how a fabric switch exchanges work with hosts,
// devices, and peer switches.
//
// Every host, switch, and device group owns its own engine shard, so a
// switch never calls into another component: requests and responses are
// value-typed messages sent on bound cxl.Links and delivered through the
// shard mailboxes to HandleMsg. Per-request continuation state lives in a
// pooled arena of value-typed transfer records (xfer); the record index is
// the token that threads through decode delays, DSP round trips, and
// Process-Core completions — no per-event closures, no steady-state
// allocation.
package fabric

import (
	"fmt"

	"pifsrec/internal/cxl"
	"pifsrec/internal/isa"
	"pifsrec/internal/pifs"
	"pifsrec/internal/sim"
)

// Fabric message kinds. Device kinds (KindDevRead/KindDevData) live in the
// cxl package; the numbering spaces are disjoint so a mixed dispatch table
// would still be unambiguous.
const (
	// KindBypassRow is a host-side remote row read (Pond-family path):
	// A=global address, U0=host id, Tag=bag slot (echoed in KindRowData).
	KindBypassRow uint16 = 0x20
	// KindPIFSStream is the batched Configuration + DataFetch instruction
	// stream: B=packed cluster key, U0=host id, U1=SumCandidateCount,
	// Tag=bag slot, Addrs=this switch's fetch addresses.
	KindPIFSStream uint16 = 0x21
	// KindPeerBatch asks the primary switch to forward fetches to a peer:
	// A=packed sub-cluster key, B=packed local fold key, U0=peer switch id,
	// Addrs=the peer's fetch addresses.
	KindPeerBatch uint16 = 0x22
	// KindFwdFetch carries forwarded fetches to the peer switch: A=packed
	// sub-cluster key, U0=source switch id, U1=source wait-record token.
	KindFwdFetch uint16 = 0x23
	// KindFwdReply returns one partial (or raw) vector to the forwarding
	// switch: U1=the echoed wait-record token.
	KindFwdReply uint16 = 0x24
	// KindRowData delivers one remote row vector to a host: Tag=bag slot.
	KindRowData uint16 = 0x25
	// KindPIFSResult delivers the accumulated sum to a host: Tag=bag slot.
	KindPIFSResult uint16 = 0x26
)

// PackKey encodes a cluster key into a payload word.
func PackKey(k pifs.ClusterKey) uint64 { return uint64(k.SPID)<<8 | uint64(k.SumTag) }

// UnpackKey decodes PackKey.
func UnpackKey(v uint64) pifs.ClusterKey {
	return pifs.ClusterKey{SPID: uint16(v >> 8), SumTag: uint8(v)}
}

// Net is the switch's sharded-fabric wiring: every link a switch sends on,
// owned by this switch's shard and bound to the receiving endpoint. Indexed
// structures use global ids so payload fields translate directly.
type Net struct {
	// Group is the placement group the switch lives on (sim.Component).
	Group int32
	// VecBytes is the system row-vector size (uniform per simulation).
	VecBytes int
	// HostUp, by host id: the host FlexBus up-direction for hosts whose
	// primary switch this is (nil otherwise).
	HostUp []*cxl.Link
	// DevDown, by this switch's local device index: the DSP down-link.
	DevDown []*cxl.Link
	// PeerReq/PeerRsp, by peer switch id: the instruction-forwarding and
	// partial-return channels, one link per direction of each switch pair.
	PeerReq []*cxl.Link
	PeerRsp []*cxl.Link
	// PeerHasCore, by switch id: the fabric's CNV bits, so the forwarding
	// side knows whether one partial or len(addrs) raw vectors will return.
	PeerHasCore []bool
}

// xfKind discriminates pooled transfer records.
type xfKind uint8

const (
	xfBypassRow xfKind = iota // decode→route→DSP, then KindRowData to host
	xfConfig                  // decode delay before ConfigureTok
	xfFetch                   // decode→buffer→DSP, then Core.Data
	xfRawReply                // coreless peer fetch, then KindFwdReply
	xfResult                  // core completion → KindPIFSResult to host
	xfPartial                 // core completion → KindFwdReply to source
	xfFwdWait                 // source-side count of outstanding peer replies
)

// xfer is one pooled continuation record.
type xfer struct {
	kind       xfKind
	key        pifs.ClusterKey
	addr       uint64
	host       int32
	dstSw      int32
	srcTok     int32
	remaining  int32
	candidates int32
	tag        uint8
	// Retry protocol state (fault mode only): attempts counts re-issues of
	// this read; tmo is the armed reply timer.
	attempts int32
	tmo      sim.Event
}

// FaultParams arms the switch's device-read retry protocol: a read whose
// reply does not arrive within TimeoutNS is re-issued after an exponential
// backoff (BackoffNS << attempt), up to MaxRetries times, then aborted. The
// protocol exists only when a fault plan is active — without one every read
// gets exactly one reply and the fields stay nil.
type FaultParams struct {
	TimeoutNS  sim.Tick
	BackoffNS  sim.Tick
	MaxRetries int32
}

// msgState is the switch's link-protocol state.
type msgState struct {
	net  Net
	recs []xfer
	free []int32
	// gens holds each record's reply generation, parallel to recs. It lives
	// outside xfer so record reuse (which zeroes the struct) cannot reset
	// it: a generation only ever increments — on release and on retry — so
	// a late KindDevData reply for a dead or re-issued read always
	// mismatches and is dropped instead of corrupting the new occupant.
	gens []uint8

	fnRoute  func(int32)
	fnConfig func(int32)
	fnFetch  func(int32)
	fnBufHit func(int32)

	// Fault mode (nil without a plan): retry parameters, the timeout
	// callback, and the set of clusters that completed degraded (at least
	// one candidate aborted) — consulted when the core's result ships so the
	// host learns its sum is partial.
	faults          *FaultParams
	fnTimeout       func(int32)
	abortedClusters map[pifs.ClusterKey]struct{}
}

// BindNet wires the switch to its links and installs the Process-Core
// completion sink. Call once at wiring time, before registration.
func (s *Switch) BindNet(n Net) {
	if s.bound {
		panic(fmt.Sprintf("fabric: switch %d already bound", s.cfg.ID))
	}
	s.bound = true
	m := &s.msg
	m.net = n
	m.fnRoute = s.msgRoute
	m.fnConfig = s.msgConfig
	m.fnFetch = s.msgFetch
	m.fnBufHit = s.msgBufHit
	if s.Core != nil {
		s.Core.SetCompletionSink(s.msgCoreDone)
	}
}

// InFlightRecords reports allocated-but-unreleased transfer records (leak
// tests).
func (s *Switch) InFlightRecords() int {
	return len(s.msg.recs) - len(s.msg.free)
}

func (m *msgState) alloc() int32 {
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		return id
	}
	m.recs = append(m.recs, xfer{})
	m.gens = append(m.gens, 0)
	return int32(len(m.recs) - 1)
}

func (m *msgState) release(id int32) {
	m.gens[id]++
	m.free = append(m.free, id)
}

// SetFaultParams arms the retry protocol. Call once at wiring time, and only
// when a fault plan is active: arming changes the packed shape of
// device-read tokens, so fault-free runs must leave it off to stay
// byte-identical with the plain protocol.
func (s *Switch) SetFaultParams(p FaultParams) {
	m := &s.msg
	if p.TimeoutNS <= 0 || p.BackoffNS <= 0 || p.MaxRetries < 0 {
		panic(fmt.Sprintf("fabric: switch %d invalid fault params %+v", s.cfg.ID, p))
	}
	m.faults = &p
	m.fnTimeout = s.msgTimeout
	m.abortedClusters = make(map[pifs.ClusterKey]struct{})
}

// HandleMsg dispatches one mailbox message delivered to this switch. It runs
// on the switch's shard and touches only switch-group state plus the
// switch-owned send links.
func (s *Switch) HandleMsg(env sim.Envelope) {
	if !s.bound {
		panic(fmt.Sprintf("fabric: switch %d HandleMsg without BindNet", s.cfg.ID))
	}
	m := &s.msg
	now := s.stalledNow()
	switch env.P.Kind {
	case KindBypassRow:
		s.stats.BypassReads++
		tok := m.alloc()
		r := &m.recs[tok]
		*r = xfer{kind: xfBypassRow, addr: env.P.A, host: env.P.U0, tag: env.P.Tag}
		s.eng.AtCall(now+s.cfg.BypassNS, m.fnRoute, tok)

	case KindPIFSStream:
		if s.Core == nil {
			panic(fmt.Sprintf("fabric: switch %d has no process core", s.cfg.ID))
		}
		s.stats.PIFSConfigs++
		key := UnpackKey(env.P.B)
		resTok := m.alloc()
		m.recs[resTok] = xfer{kind: xfResult, key: key, host: env.P.U0, tag: env.P.Tag}
		cfgTok := m.alloc()
		m.recs[cfgTok] = xfer{kind: xfConfig, key: key, candidates: env.P.U1, srcTok: resTok}
		s.eng.AtCall(now+s.cfg.DecodeNS, m.fnConfig, cfgTok)
		for _, addr := range env.Addrs {
			s.msgDataFetch(key, addr)
		}

	case KindPeerBatch:
		if now > s.eng.Now() {
			// A stall window parks the decode stage, and forwarding is decode
			// work: relaying on arrival would let the unstalled peer's replies
			// reach Core.Data before this switch's fold cluster — whose
			// Configuration decode is equally stalled — exists in the ACR.
			// Redeliver at the window's close; same-tick delivery is FIFO, so
			// batches crossing a stall keep their arrival order. The reply
			// then trails the config by construction: it costs at least the
			// peer's fetchDelay (>= DecodeNS) plus two link traversals.
			env.At = now
			s.eng.AtMsg(s, env, env.Addrs)
			return
		}
		peer := int(env.P.U0)
		s.stats.Forwarded++
		hasCore := m.net.PeerHasCore[peer]
		remaining := int32(1)
		if !hasCore {
			remaining = int32(len(env.Addrs))
		}
		wait := m.alloc()
		m.recs[wait] = xfer{kind: xfFwdWait, key: UnpackKey(env.P.B), remaining: remaining}
		m.net.PeerReq[peer].SendMsg(len(env.Addrs)*isa.SlotBytes,
			sim.Payload{Kind: KindFwdFetch, A: env.P.A, U0: int32(s.cfg.ID), U1: wait}, env.Addrs)

	case KindFwdFetch:
		s.stats.Received++
		src := env.P.U0
		if s.HasCore() {
			// Accumulate locally; one partial sum returns to the source.
			subKey := UnpackKey(env.P.A)
			resTok := m.alloc()
			m.recs[resTok] = xfer{kind: xfPartial, key: subKey, dstSw: src, srcTok: env.P.U1}
			s.stats.PIFSConfigs++
			s.Core.ConfigureTok(subKey, len(env.Addrs), m.net.VecBytes, resTok)
			for _, addr := range env.Addrs {
				s.msgDataFetch(subKey, addr)
			}
			return
		}
		// CNV=0: raw reads return individually (§IV-C2).
		for _, addr := range env.Addrs {
			s.stats.BypassReads++
			tok := m.alloc()
			m.recs[tok] = xfer{kind: xfRawReply, addr: addr, dstSw: src, srcTok: env.P.U1}
			s.eng.AtCall(now+s.cfg.BypassNS, m.fnRoute, tok)
		}

	case KindFwdReply:
		tok := env.P.U1
		r := &m.recs[tok]
		if env.P.Flag != 0 && m.abortedClusters != nil {
			// The peer's partial is degraded (or a raw read aborted); the
			// local fold cluster's eventual result must carry the mark.
			m.abortedClusters[r.key] = struct{}{}
		}
		r.remaining--
		if r.remaining == 0 {
			key := r.key
			m.release(tok)
			s.Core.Data(key)
		}

	case cxl.KindDevData:
		tok := env.P.U0
		if m.faults != nil {
			// Fault mode packs (token, generation); a reply that outlived
			// its read — the record was re-issued or aborted — is stale.
			gen := uint8(tok)
			tok >>= 8
			if m.gens[tok] != gen {
				s.stats.StaleReplies++
				return
			}
			s.eng.Cancel(m.recs[tok].tmo)
		}
		s.msgDevData(tok)

	default:
		panic(fmt.Sprintf("fabric: switch %d got message kind %#x", s.cfg.ID, env.P.Kind))
	}
}

// msgDataFetch starts one DataFetch: decode (plus any translation-unit
// serialization), buffer lookup, and on a miss the DSP round trip.
func (s *Switch) msgDataFetch(key pifs.ClusterKey, addr uint64) {
	m := &s.msg
	s.stats.PIFSFetches++
	tok := m.alloc()
	m.recs[tok] = xfer{kind: xfFetch, key: key, addr: addr}
	s.eng.AtCall(s.stalledNow()+s.fetchDelay(), m.fnFetch, tok)
}

// msgRoute resolves a decoded read (bypass row or raw forward) to its device
// and sends the repacked instruction down the DSP. In fault mode the token
// is packed with the record's reply generation and a timeout timer is armed;
// msgRoute doubles as the resend path, so a retry re-enters here after its
// backoff with the generation already bumped.
func (s *Switch) msgRoute(tok int32) {
	m := &s.msg
	r := &m.recs[tok]
	dev, devAddr := s.cfg.Route(r.addr)
	if dev < 0 || dev >= len(m.net.DevDown) {
		panic(fmt.Sprintf("fabric: switch %d has no device %d", s.cfg.ID, dev))
	}
	u0 := tok
	if f := m.faults; f != nil {
		u0 = tok<<8 | int32(m.gens[tok])
		r.tmo = s.eng.AtCall(s.eng.Now()+f.TimeoutNS, m.fnTimeout, tok)
	}
	m.net.DevDown[dev].SendMsg(isa.SlotBytes,
		sim.Payload{Kind: cxl.KindDevRead, A: devAddr, U0: u0}, nil)
}

// msgTimeout fires when a device read's reply timer expires: re-issue with
// exponential backoff while the retry budget lasts, then abort the read.
func (s *Switch) msgTimeout(tok int32) {
	m := &s.msg
	f := m.faults
	r := &m.recs[tok]
	s.stats.FaultTimeouts++
	if r.attempts < f.MaxRetries {
		r.attempts++
		m.gens[tok]++ // invalidate the outstanding reply, if it ever comes
		s.stats.FaultRetries++
		backoff := f.BackoffNS << uint(r.attempts-1)
		s.eng.AtCall(s.eng.Now()+backoff, m.fnRoute, tok)
		return
	}
	s.abortRead(tok)
}

// abortRead gives up on a device read after the retry budget: the waiting
// party is told instead of left hanging. A host read returns a header-only
// KindRowData/KindFwdReply with Flag set; a PIFS fetch marks its cluster
// degraded and feeds the core a synthetic candidate so accumulation
// completes with what arrived.
func (s *Switch) abortRead(tok int32) {
	m := &s.msg
	s.stats.AbortedReads++
	r := &m.recs[tok]
	switch r.kind {
	case xfBypassRow:
		host, tag := r.host, r.tag
		m.release(tok)
		m.net.HostUp[host].SendMsg(isa.SlotBytes,
			sim.Payload{Kind: KindRowData, Tag: tag, Flag: 1}, nil)
	case xfFetch:
		key := r.key
		m.abortedClusters[key] = struct{}{}
		m.release(tok)
		s.Core.Data(key)
	case xfRawReply:
		dst, srcTok := r.dstSw, r.srcTok
		m.release(tok)
		m.net.PeerRsp[dst].SendMsg(isa.SlotBytes,
			sim.Payload{Kind: KindFwdReply, U1: srcTok, Flag: 1}, nil)
	default:
		panic(fmt.Sprintf("fabric: abort for record kind %d", r.kind))
	}
}

// msgConfig programs the cluster after the decode delay.
func (s *Switch) msgConfig(tok int32) {
	m := &s.msg
	r := &m.recs[tok]
	s.Core.ConfigureTok(r.key, int(r.candidates), m.net.VecBytes, r.srcTok)
	m.release(tok)
}

// msgFetch runs a fetch's buffer lookup; misses go to the device.
func (s *Switch) msgFetch(tok int32) {
	m := &s.msg
	r := &m.recs[tok]
	if s.Buffer != nil && s.Buffer.Access(r.addr, m.net.VecBytes) {
		s.stats.BufferHits++
		s.eng.AtCall(s.eng.Now()+s.Buffer.LatencyNS(), m.fnBufHit, tok)
		return
	}
	if s.Buffer != nil {
		s.stats.BufferMisses++
	}
	s.msgRoute(tok)
}

// msgBufHit folds a buffer-served vector into its cluster.
func (s *Switch) msgBufHit(tok int32) {
	m := &s.msg
	key := m.recs[tok].key
	m.release(tok)
	s.Core.Data(key)
}

// msgDevData consumes a returned vector according to its pending record.
func (s *Switch) msgDevData(tok int32) {
	m := &s.msg
	r := &m.recs[tok]
	switch r.kind {
	case xfBypassRow:
		host, tag := r.host, r.tag
		m.release(tok)
		m.net.HostUp[host].SendMsg(m.net.VecBytes,
			sim.Payload{Kind: KindRowData, Tag: tag}, nil)
	case xfFetch:
		key := r.key
		m.release(tok)
		s.Core.Data(key)
	case xfRawReply:
		dst, srcTok := r.dstSw, r.srcTok
		m.release(tok)
		m.net.PeerRsp[dst].SendMsg(m.net.VecBytes,
			sim.Payload{Kind: KindFwdReply, U1: srcTok}, nil)
	default:
		panic(fmt.Sprintf("fabric: device data for record kind %d", r.kind))
	}
}

// msgCoreDone is the Process-Core completion sink: a finished cluster's
// result heads to its host (top-level) or back to the forwarding switch
// (sub-cluster partial).
func (s *Switch) msgCoreDone(tok int32, _ sim.Tick) {
	m := &s.msg
	r := &m.recs[tok]
	var degraded uint8
	if m.abortedClusters != nil {
		if _, ok := m.abortedClusters[r.key]; ok {
			degraded = 1
			delete(m.abortedClusters, r.key)
		}
	}
	switch r.kind {
	case xfResult:
		host, tag := r.host, r.tag
		m.release(tok)
		m.net.HostUp[host].SendMsg(m.net.VecBytes,
			sim.Payload{Kind: KindPIFSResult, Tag: tag, Flag: degraded}, nil)
	case xfPartial:
		dst, srcTok := r.dstSw, r.srcTok
		m.release(tok)
		m.net.PeerRsp[dst].SendMsg(m.net.VecBytes,
			sim.Payload{Kind: KindFwdReply, U1: srcTok, Flag: degraded}, nil)
	default:
		panic(fmt.Sprintf("fabric: core completion for record kind %d", r.kind))
	}
}
