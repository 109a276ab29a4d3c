package engine

import (
	"fmt"

	"pifsrec/internal/cxl"
	"pifsrec/internal/dlrm"
	"pifsrec/internal/dram"
	"pifsrec/internal/fabric"
	"pifsrec/internal/fault"
	"pifsrec/internal/osb"
	"pifsrec/internal/pifs"
	"pifsrec/internal/scenario"
	"pifsrec/internal/sim"
	"pifsrec/internal/tier"
	"pifsrec/internal/trace"
)

// Scheme-dependent latency constants.
const (
	// beaconXlatNS is the extra per-instruction translation latency of
	// BEACON's custom DIMM instruction path inside the switch ("additional
	// memory translation logic ... can introduce performance overheads",
	// §II-B2).
	beaconXlatNS = 25
	// snoopNS is the host's D2H snoop-detection time once the accumulated
	// result lands in the reserved address (§IV-A2).
	snoopNS = 10
	// dimmCacheHitNS is RecNMP's DIMM-cache hit service time.
	dimmCacheHitNS = 5
	// hostAccumPerRowNS is the amortized CPU cost of folding one row vector
	// into an SLS partial sum across the socket's SIMD pipes. Host-side
	// schemes pay it for every row; near-data schemes only for locally-
	// served rows plus the final merge — the compute the Process Core
	// absorbs.
	hostAccumPerRowNS = 1
)

// system is one assembled simulation, sharded for conservative-time-window
// execution over the sim Component model. Components are partitioned into
// placement groups — each host with its local DRAM channel banks and
// caches, each switch with its core and buffer, each CXL device with its
// controller and banks — and every group owns a private engine the sharded
// coordinator places onto workers by cost-balanced bin-packing (static
// component weights refined by measured per-window event counts). Groups
// interact only through value-typed mailbox messages whose latency is at
// least the window width, so a window's events in different groups are
// causally independent; results are byte-identical at any worker count and
// under any placement, including the 1-worker reference.
//
// Shared state is read-mostly by construction: the layout and trace are
// immutable, and the tier manager's placement only changes at window
// barriers (accesses recorded during a window are merged per host, in host
// order, before any epoch runs). Per-host mutable bookkeeping
// (migrationWaitNS, bagsDone, access records) is merged at barriers or at
// collect time, never touched across groups mid-window.
type system struct {
	cfg    Config
	se     *sim.ShardedEngine
	layout dlrm.Layout
	mgr    *tier.Manager

	switches  []*fabric.Switch
	devs      []*cxl.Type3Device
	devSwitch []int // global device -> switch index
	devOnSw   []int // global device -> device index on its switch
	devCap    []int64
	swDevs    [][]int // switch -> its global device indices

	hosts    []*host
	vecBytes int

	// Fault injection (nil without a plan): the compiled immutable window
	// schedule hosts consult for re-routing, and every wired link by name
	// for flap targeting and stall accounting.
	faultSched *fault.Schedule
	links      map[string]linkRef

	// pageBlockedUntil[page] is the time a migrating page becomes
	// accessible again; accesses landing earlier wait (§IV-B4: the OS marks
	// a migrating page non-accessible; cache-line-block shrinks the window).
	// Written only at barriers (migrations run between windows); read freely
	// by host shards during windows.
	pageBlockedUntil []sim.Tick

	barrierNow sim.Tick // current barrier time, for the move hook
	epochsDone int
}

// shardCount clamps the configured worker count to the group count —
// placement never needs more workers than groups. The pifssim CLI and the
// harness runner reject out-of-range requests up front; the clamp here
// keeps programmatic sweeps (which probe deliberately oversized counts to
// prove invariance) valid.
func shardCount(cfg Config) int {
	groups := cfg.ComponentGroups()
	n := cfg.Shards
	if n > groups {
		n = groups
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Endpoint ids double as placement-group ids: hosts, then switches, then
// devices, each component alone in its group (its DRAM banks ride along as
// aux cost components). Registration order must match.
func (s *system) hostEndpoint(h int) int32   { return int32(h) }
func (s *system) switchEndpoint(w int) int32 { return int32(len(s.hosts) + w) }
func (s *system) deviceEndpoint(d int) int32 {
	return int32(len(s.hosts) + len(s.switches) + d)
}

// bagRec tracks one in-flight bag on its host: the outstanding part groups
// (DIMM-cache hits, local batch, remote path), the remote-row completion
// count for host-side schemes, and the latest part completion time. Records
// are indexed by the bag's sumtag, which stays reserved for the bag's
// lifetime — bag dispatch allocates nothing.
type bagRec struct {
	parts      int8
	aborted    bool // a remote part returned degraded (fault abort)
	remoteLeft int32
	remoteRows int32
	localRows  int32
	last       sim.Tick
}

// bagScratch is the per-tag classification scratch replacing the old
// per-bag map and slices: row addresses split by destination, lengths reset
// per bag, capacity retained across bags.
type bagScratch struct {
	local     []uint64
	bySwitch  [][]uint64
	cacheHits int
	remote    int
}

func (sc *bagScratch) reset(switches int) {
	sc.local = sc.local[:0]
	if sc.bySwitch == nil {
		sc.bySwitch = make([][]uint64, switches)
	}
	for i := range sc.bySwitch {
		sc.bySwitch[i] = sc.bySwitch[i][:0]
	}
	sc.cacheHits = 0
	sc.remote = 0
}

// host models one CPU socket driving its shard of the trace.
type host struct {
	sys  *system
	eng  *sim.Engine
	id   int
	spid uint16
	// down is the host->switch FlexBus direction (owned by this host's
	// shard); up is the switch->host direction (owned by the primary
	// switch's shard, referenced here for stats collection).
	down *cxl.Link
	up   *cxl.Link
	sw   *fabric.Switch // the switch this host's FlexBus lands on
	// localDRAM is this socket's own DIMM population; dimmCache is the
	// RecNMP rank-level cache in front of it (nil otherwise).
	localDRAM *dram.Controller
	dimmCache *osb.Buffer

	bags        []trace.Bag
	next        int
	outstanding int
	completed   int
	bagsDone    int
	finish      sim.Tick
	// freeTags is the pool of 6-bit sumtags; a tag stays reserved while its
	// bag is in flight so no two active clusters of this host collide.
	freeTags []uint8
	// accumFree serializes the host CPU's SLS accumulate datapath.
	accumFree sim.Tick

	// migrationWaitNS and recAddrs are this host's shares of the global
	// bookkeeping, merged at barriers/collect.
	migrationWaitNS int64
	recAddrs        []uint64

	// Fault-degradation accounting: rows re-routed to the host-DRAM
	// fallback because their switch was stalled, and bags that completed
	// with at least one aborted remote part.
	reroutedRows int64
	abortedBags  int

	recs    [64]bagRec
	scratch [64]bagScratch

	// Open-loop scenario state (all nil/zero in the closed loop, so the
	// closed-loop protocol is bit-identical to the pre-scenario engine):
	// this host's arrival schedule (parallel to bags, nondecreasing),
	// admitted and dispatched counts into it, the in-flight bags' arrival
	// times by sumtag, the fixed-memory latency sketch, and the exact
	// SLO-met count.
	arrivals   []sim.Tick
	arrived    int
	dispatched int
	arrivalAt  [64]sim.Tick
	sketch     *scenario.Sketch
	withinSLO  int64

	// Stored token-event functions (allocated once; see sim.Engine.AtCall).
	fnExec      func(int32)
	fnPart      func(int32)
	fnSnoop     func(int32)
	fnLocalDone func(int32, sim.Tick)
	fnArrive    func(int32)
}

// ComponentGroup returns the host's placement group (sim.Component).
func (h *host) ComponentGroup() int32 { return int32(h.id) }

// CostWeight is the host front-end's static placement weight (bag
// classification, accumulate datapath, snoop loop); the socket's DRAM
// channel banks add theirs as aux components, making hosts the heaviest
// groups — which is what the cost-balanced placement needs to see.
func (h *host) CostWeight() float64 {
	w := 2.0
	if h.dimmCache != nil {
		w++
	}
	return w
}

// UsesWindowHooks opts the host into barrier hooks: WindowEnd does the
// access-record merge.
func (h *host) UsesWindowHooks() bool { return true }

// WindowStart is a no-op (sim.Component).
func (h *host) WindowStart(sim.Tick) {}

// BarrierIdle reports true while the WindowEnd merge would be a no-op — no
// access records buffered — making the host eligible for barrier elision
// (sim.BarrierIdler).
func (h *host) BarrierIdle() bool { return len(h.recAddrs) == 0 }

// WindowEnd merges this host's buffered access records into the tier
// manager. Hooks run single-threaded in registration (host id) order at
// every barrier, so the merge order — and therefore every page-management
// decision — is identical at any worker count and placement.
func (h *host) WindowEnd(sim.Tick) {
	for _, a := range h.recAddrs {
		h.sys.mgr.Record(a)
	}
	h.recAddrs = h.recAddrs[:0]
}

// HandleMsg consumes switch->host messages (sim.Component).
func (h *host) HandleMsg(env sim.Envelope) {
	switch env.P.Kind {
	case fabric.KindRowData:
		// One remote row vector arrived over the FlexBus (host-side
		// schemes); the last one starts the CPU fold of the remote set.
		// Flag marks a read the switch aborted after its retry budget —
		// the bag still completes, degraded.
		rec := &h.recs[env.P.Tag]
		if env.P.Flag != 0 {
			rec.aborted = true
		}
		rec.remoteLeft--
		if rec.remoteLeft == 0 {
			h.accumulatePart(int(rec.remoteRows), int32(env.P.Tag))
		}
	case fabric.KindPIFSResult:
		// The accumulated sum landed in the reserved address; the snooping
		// daemon notices shortly after, then merges it at one row's cost.
		// Flag marks a degraded sum (some candidate aborted in the fabric).
		if env.P.Flag != 0 {
			h.recs[env.P.Tag].aborted = true
		}
		h.eng.AtCall(h.eng.Now()+snoopNS, h.fnSnoop, int32(env.P.Tag))
	default:
		panic(fmt.Sprintf("engine: host %d got message kind %#x", h.id, env.P.Kind))
	}
}

// accumulatePart charges rows of host-side SLS folding, serialized on the
// host's accumulate datapath, and completes the bag part when it drains.
func (h *host) accumulatePart(rows int, tag int32) {
	start := h.eng.Now()
	if h.accumFree > start {
		start = h.accumFree
	}
	fin := start + sim.Tick(rows*hostAccumPerRowNS)
	h.accumFree = fin
	h.eng.AtCall(fin, h.fnPart, tag)
}

// partDone retires one part group of a bag at the current time.
func (h *host) partDone(tag int32) {
	rec := &h.recs[tag]
	if now := h.eng.Now(); now > rec.last {
		rec.last = now
	}
	rec.parts--
	if rec.parts == 0 {
		h.bagComplete(uint8(tag), rec.last)
	}
}

// localDone receives the local-DRAM batch completion. Under RecNMP the NMP
// units folded in-DIMM at no CPU cost; other schemes fold on the host.
func (h *host) localDone(tag int32, _ sim.Tick) {
	if h.sys.cfg.Scheme == RecNMP {
		h.partDone(tag)
		return
	}
	h.accumulatePart(int(h.recs[tag].localRows), tag)
}

// bagComplete returns the tag, advances the host's progress, and refills the
// pipeline — from the fixed closed loop, or from the open arrival queue
// when a scenario is active (recording the request's end-to-end latency
// first, before dispatch can recycle the tag's arrival slot).
func (h *host) bagComplete(tag uint8, at sim.Tick) {
	h.outstanding--
	h.completed++
	h.bagsDone++
	aborted := h.recs[tag].aborted
	if aborted {
		h.abortedBags++
	}
	h.freeTags = append(h.freeTags, tag)
	if at > h.finish {
		h.finish = at
	}
	if h.sketch != nil {
		lat := int64(at - h.arrivalAt[tag])
		h.sketch.Record(lat)
		if !aborted && (h.sys.cfg.Scenario.SLONS == 0 || lat <= h.sys.cfg.Scenario.SLONS) {
			h.withinSLO++
		}
		h.dispatchArrived()
		return
	}
	h.pump()
}

// localGeometry is the host-attached DDR5 organization: the platform's
// 12-channel sockets (§III) with capacity scaled down. Local DRAM is the
// premium tier — its aggregate bandwidth exceeds the pooled devices', which
// is why extra local capacity helps (Fig 12(d)) even though bandwidth, not
// capacity, is the bottleneck. Page-granular channel interleave keeps each
// row vector within one channel so its lines enjoy row-buffer hits.
func localGeometry() dram.Geometry {
	return dram.Geometry{Channels: 12, Ranks: 2, BankGroups: 4, Banks: 4,
		Rows: 1 << 12, RowBytes: 8192, InterleaveBytes: 4096}
}

// nmpGeometry doubles the effective channel count for RecNMP's rank-level
// parallelism: the DIMM-side accumulators harvest intra-DIMM bandwidth the
// host bus cannot see (§VI-B).
func nmpGeometry() dram.Geometry {
	g := localGeometry()
	g.Channels *= 2
	return g
}

// deviceGeometry is one CXL Type 3 expander (Table II: 4 channels DDR4,
// scaled rows).
func deviceGeometry() dram.Geometry {
	return dram.Geometry{Channels: 4, Ranks: 2, BankGroups: 4, Banks: 4,
		Rows: 1 << 11, RowBytes: 8192, InterleaveBytes: 4096}
}

// build assembles the system.
func build(cfg Config) (*system, error) {
	s := &system{cfg: cfg}
	s.se = sim.NewSharded(shardCount(cfg), cxl.PortOverheadNS)
	if cfg.Placement != nil {
		s.se.SetPlacement(cfg.Placement)
	}
	s.se.SetAffinityPlacement(cfg.PlacementMode != "weight")
	// One placement group per host, switch, and device, in endpoint order;
	// weights accrue as components register.
	for g := 0; g < cfg.Hosts+cfg.Switches+cfg.Devices; g++ {
		s.se.NewGroup(0)
	}
	s.vecBytes = cfg.Model.RowBytes()
	s.layout = dlrm.NewLayout(cfg.Model, 0)
	footprint := s.layout.Footprint()

	// Page management configuration per scheme.
	tcfg := tier.Config{
		CXLNodes:             cfg.Devices,
		LocalBytes:           int64(cfg.LocalFraction * float64(footprint)),
		ColdAgeThreshold:     cfg.ColdAgeThreshold,
		MigrateThreshold:     cfg.MigrateThreshold,
		CacheLineMigration:   !cfg.PageBlockMigration,
		InterleaveLocalShare: cfg.LocalFraction,
	}
	switch {
	case cfg.TPPPolicy:
		tcfg.Policy = tier.PolicyTPP
	case cfg.Scheme == PondPM || cfg.Scheme == RecNMP:
		tcfg.Policy = tier.PolicyPIFS
	case cfg.Scheme == PIFSRec && !cfg.DisablePM:
		tcfg.Policy = tier.PolicyPIFS
	default:
		tcfg.Policy = tier.PolicyNone
	}
	if cfg.Scheme == BEACON {
		tcfg.CXLOnly = true // BEACON's standalone use of CXL memory (§II-B2)
		tcfg.LocalBytes = 0
	}
	mgr, err := tier.NewManager(tcfg, footprint)
	if err != nil {
		return nil, err
	}
	s.mgr = mgr

	// Fabric switches, each on its group's shard.
	for i := 0; i < cfg.Switches; i++ {
		swCfg := fabric.Config{
			ID:      i,
			PortID:  uint16(0x100 + i),
			HasCore: cfg.Scheme == BEACON || cfg.Scheme == PIFSRec,
			Core:    pifs.DefaultConfig(),
			Route:   s.routeFor(i),
		}
		if cfg.Scheme == BEACON {
			// BEACON reaches throughput with parallel NDP units rather than
			// the OoO engine; its limited unit count shows up as a small
			// swap pool, and the custom DIMM-instruction path pays extra
			// translation latency per fetch plus a serializing translation
			// unit (§II-B2).
			swCfg.Core.SwapRegisters = 8
			swCfg.DecodeNS = beaconXlatNS
			swCfg.XlatPerFetchNS = 2
		}
		if cfg.Scheme == PIFSRec {
			swCfg.Core.OoO = !cfg.DisableOoO
			if !cfg.DisableOSB && cfg.BufferBytes > 0 {
				swCfg.BufferBytes = cfg.BufferBytes
				swCfg.BufferPolicy = cfg.BufferPolicy
			}
		}
		swEng := s.se.Group(cfg.Hosts + i)
		s.switches = append(s.switches, fabric.New(swEng, swCfg))
	}

	// CXL devices on their own shards.
	s.devSwitch = make([]int, cfg.Devices)
	s.devOnSw = make([]int, cfg.Devices)
	s.devCap = make([]int64, cfg.Devices)
	s.swDevs = make([][]int, cfg.Switches)
	for d := 0; d < cfg.Devices; d++ {
		swIdx := d % cfg.Switches
		devGroup := cfg.Hosts + cfg.Switches + d
		dev := cxl.NewType3(s.se.Group(devGroup), cxl.DeviceConfig{
			ID:       d,
			PortID:   uint16(0x200 + d),
			Geometry: deviceGeometry(),
			Timing:   dram.DDR4_3200(),
			Group:    int32(devGroup),
		})
		s.devs = append(s.devs, dev)
		s.devSwitch[d] = swIdx
		s.devOnSw[d] = len(s.swDevs[swIdx])
		s.devCap[d] = dev.Capacity()
		s.swDevs[swIdx] = append(s.swDevs[swIdx], d)
	}

	// Hosts with their own DIMM populations, sharded round-robin over the
	// trace. RecNMP sockets carry the rank-parallel NMP organization plus
	// the rank-level cache; HTR is "akin to RecNMP" (§IV-A4).
	geo := localGeometry()
	if cfg.Scheme == RecNMP {
		geo = nmpGeometry()
	}
	for h := 0; h < cfg.Hosts; h++ {
		hostEng := s.se.Group(h)
		localDRAM := dram.NewController(hostEng, geo, dram.DDR5_4800())
		localDRAM.SetGroup(int32(h))
		hh := &host{
			sys:       s,
			eng:       hostEng,
			id:        h,
			spid:      uint16(1 + h),
			sw:        s.switches[h%len(s.switches)],
			localDRAM: localDRAM,
		}
		if cfg.Scheme == RecNMP {
			hh.dimmCache = osb.New(4<<20, osb.HTR)
		}
		for tag := 63; tag >= 0; tag-- {
			hh.freeTags = append(hh.freeTags, uint8(tag))
		}
		for i := h; i < len(cfg.Trace.Bags); i += cfg.Hosts {
			hh.bags = append(hh.bags, cfg.Trace.Bags[i])
		}
		hh.fnExec = func(tag int32) { s.execBag(hh, uint8(tag)) }
		hh.fnPart = hh.partDone
		hh.fnSnoop = func(tag int32) { hh.accumulatePart(1, tag) }
		hh.fnLocalDone = hh.localDone
		hh.fnArrive = hh.arrive
		s.hosts = append(s.hosts, hh)
	}

	// Open-loop scenario: materialize the deterministic arrival schedule
	// and stripe it over hosts exactly like the bags (arrival i belongs to
	// host i mod Hosts), so each host's k-th arrival times its k-th bag.
	// The schedule is computed once here, before any sharding decision, so
	// it cannot depend on worker count or placement.
	if cfg.Scenario != nil {
		arr, err := cfg.Scenario.Arrivals(len(cfg.Trace.Bags))
		if err != nil {
			return nil, err
		}
		for i, at := range arr {
			s.hosts[i%cfg.Hosts].arrivals = append(s.hosts[i%cfg.Hosts].arrivals, at)
		}
		for _, h := range s.hosts {
			h.sketch = &scenario.Sketch{}
		}
	}

	s.wireLinks()
	if cfg.Faults != nil {
		s.armFaults(cfg.Faults)
	}

	// Page moves invalidate cached row vectors on every buffered switch and
	// block the page for the migration window. Migrations run only at
	// window barriers, so the hook executes single-threaded between windows
	// and may touch every group's caches.
	s.pageBlockedUntil = make([]sim.Tick, s.mgr.Pages())
	blockNS := sim.Tick(tier.CacheLineBlockStallNS)
	if cfg.PageBlockMigration {
		blockNS = tier.PageBlockStallNS
	}
	s.mgr.SetMoveHook(func(page int, from, to tier.Node) {
		until := s.barrierNow + blockNS
		if until > s.pageBlockedUntil[page] {
			s.pageBlockedUntil[page] = until
		}
		start := uint64(page) * tier.PageBytes
		end := start + tier.PageBytes
		if int64(end) > footprint {
			end = uint64(footprint)
		}
		for _, sw := range s.switches {
			sw.InvalidateBufferRange(start, end)
		}
		for _, h := range s.hosts {
			if h.dimmCache != nil {
				h.dimmCache.InvalidateRange(start, end)
			}
		}
	})

	s.register()
	s.se.SetBarrier(s.barrier)
	if !cfg.DisableBarrierElision {
		// The barrier only does work when completed bags owe a
		// page-management epoch; between epochs it is skippable, which —
		// with the hosts' WindowEnd merge idling on empty record buffers —
		// lets the engine elide the whole barrier sequence on quiet windows.
		s.se.SetBarrierIdle(s.barrierIdle)
	}
	return s, nil
}

// barrierIdle reports whether the next barrier would be a no-op: no
// page-management epoch owed by the completed-bag count.
func (s *system) barrierIdle() bool {
	total := 0
	for _, h := range s.hosts {
		total += h.bagsDone
	}
	return s.epochsDone >= total/s.cfg.EpochBags
}

// register adds every component to the sharded engine in endpoint order —
// hosts, switches, devices — and their DRAM channel banks as aux cost
// components, so mailbox routing and the placement cost model share one
// registry. The order fixes endpoint ids; it must match the endpoint
// helpers and never depend on worker count or placement.
func (s *system) register() {
	for _, h := range s.hosts {
		if ep := s.se.Register(h); ep != s.hostEndpoint(h.id) {
			panic(fmt.Sprintf("engine: host %d registered as endpoint %d", h.id, ep))
		}
		for _, b := range h.localDRAM.Banks() {
			s.se.RegisterAux(b)
		}
	}
	for w, sw := range s.switches {
		if ep := s.se.Register(sw); ep != s.switchEndpoint(w) {
			panic(fmt.Sprintf("engine: switch %d registered as endpoint %d", w, ep))
		}
	}
	for d, dev := range s.devs {
		if ep := s.se.Register(dev); ep != s.deviceEndpoint(d) {
			panic(fmt.Sprintf("engine: device %d registered as endpoint %d", d, ep))
		}
		for _, b := range dev.Banks() {
			s.se.RegisterAux(b)
		}
	}
}

// wireLinks creates and binds every mailbox link. Port ids are allocated in
// a fixed construction order (host FlexBus pairs, then DSPs, then peer
// channels) so the barrier merge's (time, port, seq) key is identical at
// every shard count.
func (s *system) wireLinks() {
	// Endpoint == group, so a link's destination group is its endpoint.
	s.links = make(map[string]linkRef)
	newLink := func(owner int32, name string, gbps float64, prop sim.Tick, dst int32) *cxl.Link {
		eng := s.se.Group(int(owner))
		l := cxl.NewLink(eng, name, gbps, prop)
		l.Bind(s.se.Outbox(int(owner)), s.se.NewPort(), dst, dst)
		s.links[name] = linkRef{l: l, eng: eng}
		return l
	}

	S := len(s.switches)
	hostUpBySwitch := make([][]*cxl.Link, S)
	for w := range hostUpBySwitch {
		hostUpBySwitch[w] = make([]*cxl.Link, len(s.hosts))
	}
	for _, h := range s.hosts {
		swEp := s.switchEndpoint(h.sw.ID())
		h.down = newLink(s.hostEndpoint(h.id), fmt.Sprintf("host%d.down", h.id),
			cxl.PCIe5x16GBs, cxl.PortOverheadNS, swEp)
		h.up = newLink(swEp, fmt.Sprintf("host%d.up", h.id),
			cxl.PCIe5x16GBs, cxl.PortOverheadNS, s.hostEndpoint(h.id))
		hostUpBySwitch[h.sw.ID()][h.id] = h.up
	}

	devDown := make([][]*cxl.Link, S)
	for d, dev := range s.devs {
		w := s.devSwitch[d]
		onSw := len(devDown[w])
		down := newLink(s.switchEndpoint(w), fmt.Sprintf("sw%d.dsp%d.down", w, onSw),
			s.dspBandwidth(w), cxl.PortOverheadNS, s.deviceEndpoint(d))
		up := newLink(s.deviceEndpoint(d), fmt.Sprintf("sw%d.dsp%d.up", w, onSw),
			s.dspBandwidth(w), cxl.PortOverheadNS, s.switchEndpoint(w))
		devDown[w] = append(devDown[w], down)
		dev.Bind(up, s.vecBytes)
	}

	peerReq := make([][]*cxl.Link, S)
	peerRsp := make([][]*cxl.Link, S)
	hasCore := make([]bool, S)
	for w, sw := range s.switches {
		peerReq[w] = make([]*cxl.Link, S)
		peerRsp[w] = make([]*cxl.Link, S)
		hasCore[w] = sw.HasCore()
	}
	if S > 1 {
		// The inter-switch channels carry the extra forwarding latency of
		// §VI-C4; each ordered switch pair gets one link for forwarded
		// requests and one for partial returns, so the two never contend.
		for a := 0; a < S; a++ {
			for b := 0; b < S; b++ {
				if a == b {
					continue
				}
				peerReq[a][b] = newLink(s.switchEndpoint(a), fmt.Sprintf("sw%d-sw%d.req", a, b),
					s.dspBandwidth(a), cxl.SwitchForwardNS, s.switchEndpoint(b))
				peerRsp[a][b] = newLink(s.switchEndpoint(a), fmt.Sprintf("sw%d-sw%d.rsp", a, b),
					s.dspBandwidth(a), cxl.SwitchForwardNS, s.switchEndpoint(b))
			}
		}
	}

	for w, sw := range s.switches {
		sw.BindNet(fabric.Net{
			Group:       s.switchEndpoint(w),
			VecBytes:    s.vecBytes,
			HostUp:      hostUpBySwitch[w],
			DevDown:     devDown[w],
			PeerReq:     peerReq[w],
			PeerRsp:     peerRsp[w],
			PeerHasCore: hasCore,
		})
	}
}

// dspBandwidth is the switch's resolved per-downstream-port bandwidth
// (fabric.Config.DSPBandwidthGBs after defaulting), so engine-built DSP and
// peer links honor any per-switch override.
func (s *system) dspBandwidth(w int) float64 { return s.switches[w].DSPBandwidthGBs() }

// routeFor builds the FM-endpoint memory-indexing function of switch i: it
// resolves a global address to a device attached to that switch. If a page
// migrated while a fetch was in flight (the request was addressed before
// the lookup table was updated), the route falls back to a deterministic
// stripe across this switch's devices — the data is wherever the stale
// table entry pointed, which this models without double-counting traffic.
// Placement reads are safe from any shard mid-window: migrations only run
// at barriers.
func (s *system) routeFor(swIdx int) fabric.Route {
	return func(addr uint64) (int, uint64) {
		d := -1
		if node := s.mgr.NodeOf(addr); node.IsCXL() {
			if g := node.CXLIndex(); s.devSwitch[g] == swIdx {
				d = g
			}
		}
		if d < 0 {
			devs := s.swDevs[swIdx]
			d = devs[int(addr/tier.PageBytes)%len(devs)]
		}
		return s.devOnSw[d], nodeLocalAddr(addr, s.devCap[d])
	}
}

// nodeLocalAddr compacts a global address into a node's local address space
// by hashing the page number. Placement strides pages across nodes (every
// Nth 4 KB page), which would otherwise alias with the page-granular channel
// interleave and pile every access of a node onto one DRAM channel. The
// mixer must avalanche into the low bits (a plain multiplicative hash is an
// identity mod small powers of two), so it uses a SplitMix64-style finalizer.
func nodeLocalAddr(addr uint64, capacity int64) uint64 {
	page := addr / tier.PageBytes
	off := addr % tier.PageBytes
	pages := uint64(capacity) / tier.PageBytes
	h := page
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return (h%pages)*tier.PageBytes + off
}

// barrier runs between windows, after every host's WindowEnd hook has
// merged its access records in host order: run any page-management epochs
// the completed-bag count owes. Single-goroutine; every worker has joined.
func (s *system) barrier(at sim.Tick) {
	s.barrierNow = at
	total := 0
	for _, h := range s.hosts {
		total += h.bagsDone
	}
	for s.epochsDone < total/s.cfg.EpochBags {
		s.epochsDone++
		s.mgr.Epoch()
	}
}

// Run simulates the configured system end to end.
func Run(cfg Config) (Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return Result{}, err
	}
	s, err := build(cfg)
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < s.se.Groups(); i++ {
		s.se.Group(i).SetEventLimit(500_000_000)
	}

	for _, h := range s.hosts {
		if s.cfg.Scenario != nil {
			h.startOpenLoop()
		} else {
			h.pump()
		}
	}
	if _, err := s.se.RunChecked(); err != nil {
		return Result{}, err
	}
	// Drain watchdog: the calendars emptied, so any outstanding bag means a
	// completion was lost somewhere — report it instead of returning a
	// silently-truncated result.
	for _, h := range s.hosts {
		if h.completed != len(h.bags) {
			return Result{}, &StallError{
				Host: h.id, Completed: h.completed,
				Total: len(h.bags), Outstanding: h.outstanding,
			}
		}
	}

	return s.collect(), nil
}

// pump keeps HostParallelism bags in flight. Migration stalls gate the
// individual bags (runBag's deferred start), not the pump itself.
func (h *host) pump() {
	for h.outstanding < h.sys.cfg.HostParallelism && h.next < len(h.bags) {
		bag := h.bags[h.next]
		n := len(h.freeTags)
		tag := h.freeTags[n-1]
		h.freeTags = h.freeTags[:n-1]
		h.next++
		h.outstanding++
		h.sys.runBag(h, bag, tag)
	}
}

// startOpenLoop schedules this host's first arrival. Arrivals chain —
// arrival k schedules k+1 — so the calendar carries at most one pending
// arrival per host no matter how long the schedule is.
func (h *host) startOpenLoop() {
	if len(h.arrivals) > 0 {
		h.eng.AtCall(h.arrivals[0], h.fnArrive, 0)
	}
}

// arrive admits bag k into the open queue at its scheduled time, chains the
// next arrival, and dispatches as far as the parallelism bound allows. It
// runs as an ordinary calendar event on this host's group engine, so
// arrival ordering against message deliveries is the engine's deterministic
// (tick, seq) order — identical at every shard count and placement.
func (h *host) arrive(k int32) {
	h.arrived++
	if int(k)+1 < len(h.arrivals) {
		h.eng.AtCall(h.arrivals[k+1], h.fnArrive, k+1)
	}
	h.dispatchArrived()
}

// dispatchArrived starts arrived-but-queued bags in FIFO order up to
// HostParallelism — the open-loop counterpart of pump. Time spent waiting
// here is exactly the queueing delay the tail quantiles exist to expose.
func (h *host) dispatchArrived() {
	for h.outstanding < h.sys.cfg.HostParallelism && h.dispatched < h.arrived {
		bag := h.bags[h.dispatched]
		n := len(h.freeTags)
		tag := h.freeTags[n-1]
		h.freeTags = h.freeTags[:n-1]
		h.arrivalAt[tag] = h.arrivals[h.dispatched]
		h.dispatched++
		h.outstanding++
		h.sys.runBag(h, bag, tag)
	}
}

// collect gathers the result after the event queues drain.
func (s *system) collect() Result {
	r := Result{Scheme: s.cfg.Scheme}
	for _, h := range s.hosts {
		r.Bags += h.bagsDone
		if h.finish > r.TotalNS {
			r.TotalNS = h.finish
		}
		r.HostLinkDownBytes += h.down.Stats().BytesMoved
		r.HostLinkUpBytes += h.up.Stats().BytesMoved
		r.LocalDRAMReads += h.localDRAM.Stats().Reads
	}
	if r.Bags > 0 {
		r.NSPerBag = float64(r.TotalNS) / float64(r.Bags)
	}
	var queueDelay, queueReqs int64
	for _, h := range s.hosts {
		st := h.localDRAM.Stats()
		queueDelay += st.QueueDelay
		queueReqs += st.Reads + st.Writes
	}
	r.DeviceReads = make([]int64, s.cfg.Devices)
	for d, dev := range s.devs {
		r.DeviceReads[d] = dev.Stats().Reads
		dst := dev.DRAMStats()
		queueDelay += dst.QueueDelay
		queueReqs += dst.Reads + dst.Writes
	}
	if queueReqs > 0 {
		r.MeanQueueDelayNS = float64(queueDelay) / float64(queueReqs)
	}
	var hits, misses int64
	var tagSwitches, inOrder int64
	for _, sw := range s.switches {
		st := sw.Stats()
		hits += st.BufferHits
		misses += st.BufferMisses
		if sw.HasCore() {
			cs := sw.Core.Stats()
			tagSwitches += cs.TagSwitches
			inOrder += cs.InOrderStalls
		}
	}
	for _, h := range s.hosts {
		if h.dimmCache != nil {
			ds := h.dimmCache.Stats()
			hits += ds.Hits
			misses += ds.Misses
		}
	}
	if hits+misses > 0 {
		r.BufferHitRatio = float64(hits) / float64(hits+misses)
	}
	r.BufferHits = hits
	r.CoreTagSwitches = tagSwitches
	r.CoreInOrderStalls = inOrder
	// migration waits sum per-bag stalls, which overlap across the
	// (Hosts x HostParallelism) concurrent bags; dividing by the
	// concurrency yields the wall-clock-equivalent stall that "migration
	// cost with respect to the total latency" (Fig 13) refers to.
	var migrationWait int64
	for _, h := range s.hosts {
		migrationWait += h.migrationWaitNS
	}
	concurrency := int64(s.cfg.Hosts * s.cfg.HostParallelism)
	r.MigrationStallNS = migrationWait / concurrency
	r.PagesMigrated = s.mgr.Stats().PagesMigrated
	r.LocalShare = s.mgr.LocalShareOfAccesses()
	r.DeviceAccessMean, r.DeviceAccessStd = s.mgr.DeviceAccessStdDev()

	// Fault-degradation accounting (all zero without a plan).
	for _, sw := range s.switches {
		st := sw.Stats()
		r.FaultRetries += st.FaultRetries
		r.FaultTimeouts += st.FaultTimeouts
		r.AbortedRows += st.AbortedReads
		r.StaleReplies += st.StaleReplies
	}
	for _, dev := range s.devs {
		r.DeviceDropped += dev.Stats().Dropped
	}
	for _, h := range s.hosts {
		r.ReroutedRows += h.reroutedRows
		r.AbortedBags += h.abortedBags
	}
	for _, ref := range s.links {
		r.LinkFaultStallNS += int64(ref.l.Stats().FaultStallNS)
	}
	if r.Bags > 0 && r.TotalNS > 0 {
		r.GoodputBagsPerSec = float64(r.Bags-r.AbortedBags) / float64(r.TotalNS) * 1e9
	}
	if s.faultSched != nil && r.TotalNS > 0 {
		r.DegradedFraction = float64(s.faultSched.DegradedNS(int64(r.TotalNS))) / float64(r.TotalNS)
	}
	// Open-loop latency report: merge the per-host sketches in host id order.
	// Merge is exactly associative/commutative (binwise add), so the merged
	// bins — hence the whole report — are byte-identical at every shard
	// count and placement, unlike Sched below.
	if s.cfg.Scenario != nil {
		var merged scenario.Sketch
		var withinSLO int64
		for _, h := range s.hosts {
			merged.Merge(h.sketch)
			withinSLO += h.withinSLO
		}
		r.Latency = scenario.NewReport(&merged, withinSLO, s.cfg.Scenario.SLONS,
			int64(r.TotalNS), s.cfg.Scenario.QPS)
	}
	r.Sched = s.se.SchedStats()
	return r
}
