package engine

import (
	"fmt"

	"pifsrec/internal/fabric"
	"pifsrec/internal/isa"
	"pifsrec/internal/pifs"
	"pifsrec/internal/sim"
	"pifsrec/internal/tier"
	"pifsrec/internal/trace"
)

// runBag classifies one SLS bag's rows and launches its parts under the
// configured scheme. Rows touching a page that is mid-migration wait for the
// page's blocked window to close before the bag starts (§IV-B4).
//
// Classification writes into the host's per-tag scratch (no map, no fresh
// slices: the tag stays reserved until the bag completes, so the scratch
// survives a deferred start) and progress rides the per-tag bagRec — bag
// dispatch is allocation-free in steady state.
func (s *system) runBag(h *host, bag trace.Bag, tag uint8) {
	if len(bag.Indices) == 0 {
		panic("engine: empty bag")
	}
	sc := &h.scratch[tag]
	sc.reset(len(s.switches))
	now := h.eng.Now()
	start := now
	for _, ix := range bag.Indices {
		addr := s.layout.RowAddr(bag.Table, ix)
		// Hotness accounting is buffered per host and merged into the tier
		// manager at the next window barrier (host order), keeping the
		// manager read-only while shards run.
		h.recAddrs = append(h.recAddrs, addr)
		if b := s.pageBlockedUntil[s.mgr.PageOf(addr)]; b > start {
			start = b
		}
		// RecNMP's rank-level DIMM cache captures hot vectors at row
		// granularity regardless of which tier their page sits on — the
		// row-vs-page granularity advantage of §IV-B1.
		if h.dimmCache != nil && h.dimmCache.Access(addr, s.vecBytes) {
			sc.cacheHits++
			continue
		}
		node := s.mgr.NodeOf(addr)
		if node == tier.NodeLocal {
			sc.local = append(sc.local, addr)
		} else {
			swIdx := s.devSwitch[node.CXLIndex()]
			sc.bySwitch[swIdx] = append(sc.bySwitch[swIdx], addr)
			sc.remote++
		}
	}
	if start > now {
		h.migrationWaitNS += int64(start - now)
		h.eng.AtCall(start, h.fnExec, int32(tag))
		return
	}
	s.execBag(h, tag)
}

// execBag launches the bag's part groups: DIMM-cache hits, the local-DRAM
// batch, and the scheme's remote path.
func (s *system) execBag(h *host, tag uint8) {
	sc := &h.scratch[tag]
	// Graceful degradation: rows bound for a switch inside a stall window
	// are re-routed to the host-DRAM fallback tier instead of being sent
	// into a frozen decoder. The decision reads the compiled immutable
	// fault schedule at this host's local time, so it is identical at every
	// shard count and placement.
	if s.faultSched != nil && sc.remote > 0 {
		now := h.eng.Now()
		for swIdx := range sc.bySwitch {
			rows := sc.bySwitch[swIdx]
			if len(rows) == 0 || !s.faultSched.SwitchDown(swIdx, int64(now)) {
				continue
			}
			sc.local = append(sc.local, rows...)
			sc.remote -= len(rows)
			sc.bySwitch[swIdx] = rows[:0]
			h.reroutedRows += int64(len(rows))
		}
	}
	rec := &h.recs[tag]
	*rec = bagRec{}
	if sc.cacheHits > 0 {
		rec.parts++
	}
	if len(sc.local) > 0 {
		rec.parts++
	}
	if sc.remote > 0 {
		rec.parts++
	}
	if rec.parts == 0 {
		panic("engine: bag with no rows to execute")
	}
	now := h.eng.Now()

	if sc.cacheHits > 0 {
		// Cache-served rows accumulate inside the DIMM-side NMP units — no
		// host CPU involvement.
		h.eng.AtCall(now+dimmCacheHitNS, h.fnPart, int32(tag))
	}
	if n := len(sc.local); n > 0 {
		// Locally-resident rows are fetched from host DRAM and folded by
		// the host CPU (for every scheme but RecNMP, whose NMP units fold
		// in-DIMM at no CPU cost). All of a bag's local rows go down as ONE
		// controller batch with a single completion counter. The scratch's
		// addresses are rewritten in place to node-local bases.
		rec.localRows = int32(n)
		localCap := h.localDRAM.Geometry().Capacity()
		for i, addr := range sc.local {
			sc.local[i] = nodeLocalAddr(addr, localCap)
		}
		h.localDRAM.SubmitBatch(sc.local, s.vecBytes, false, 0, h.fnLocalDone, int32(tag))
	}
	if sc.remote == 0 {
		return
	}
	switch s.cfg.Scheme {
	case Pond, PondPM, RecNMP:
		s.hostSideRemote(h, tag, sc)
	case BEACON, PIFSRec:
		s.inSwitchRemote(h, tag, sc)
	default:
		panic(fmt.Sprintf("engine: runBag for scheme %q", s.cfg.Scheme))
	}
}

// hostSideRemote is the Pond-family CXL path: each remote row costs one
// request slot down the host FlexBus, a bypass fetch through the switch, and
// the full row vector back up the FlexBus (KindRowData), where the host
// accumulates once the last row lands. The up-link occupancy per row is what
// the in-switch schemes eliminate. These schemes run a single switch, so
// every remote row heads down the host's one FlexBus.
func (s *system) hostSideRemote(h *host, tag uint8, sc *bagScratch) {
	rec := &h.recs[tag]
	rec.remoteLeft = int32(sc.remote)
	rec.remoteRows = int32(sc.remote)
	for swIdx := range sc.bySwitch {
		for _, addr := range sc.bySwitch[swIdx] {
			h.down.SendMsg(isa.SlotBytes, sim.Payload{
				Kind: fabric.KindBypassRow, A: addr, U0: int32(h.id), Tag: tag,
			}, nil)
		}
	}
}

// inSwitchRemote is the PIFS/BEACON path: one Configuration slot programs
// the accumulation cluster (SumCandidateCount = rows not in local DRAM,
// §IV-A2), DataFetch slots follow as one contiguous instruction stream
// (§IV-D) crossing the FlexBus as a single batched transfer, and a single
// accumulated vector returns over CXL.cache D2H (KindPIFSResult), detected
// by the host's snoop loop. Rows on devices behind peer switches travel via
// multi-layer instruction forwarding with Sub-SumCandidateCounts (§IV-C1):
// each touched peer contributes one pre-accumulated partial, so it counts as
// one candidate of the primary cluster. FIFO ordering on the FlexBus
// guarantees the ACR entry exists before any fetch can produce data.
func (s *system) inSwitchRemote(h *host, tag uint8, sc *bagScratch) {
	primaryIdx := h.sw.ID()
	key := pifs.ClusterKey{SPID: h.spid, SumTag: tag}

	localFetches := sc.bySwitch[primaryIdx]
	candidates := len(localFetches)
	for swIdx := range sc.bySwitch {
		if swIdx != primaryIdx && len(sc.bySwitch[swIdx]) > 0 {
			candidates++
		}
	}

	streamBytes := isa.SlotBytes * (1 + len(localFetches))
	h.down.SendMsg(streamBytes, sim.Payload{
		Kind: fabric.KindPIFSStream,
		B:    fabric.PackKey(key),
		U0:   int32(h.id),
		U1:   int32(candidates),
		Tag:  tag,
	}, localFetches)

	for swIdx := range sc.bySwitch {
		if swIdx == primaryIdx || len(sc.bySwitch[swIdx]) == 0 {
			continue
		}
		// Sub-cluster identity: high bit set, host and peer switch packed
		// into the 12-bit port-id space.
		sub := pifs.ClusterKey{SPID: 0x800 | h.spid<<5 | uint16(swIdx), SumTag: tag}
		h.down.SendMsg(len(sc.bySwitch[swIdx])*isa.SlotBytes, sim.Payload{
			Kind: fabric.KindPeerBatch,
			A:    fabric.PackKey(sub),
			B:    fabric.PackKey(key),
			U0:   int32(swIdx),
		}, sc.bySwitch[swIdx])
	}
}
