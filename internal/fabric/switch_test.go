package fabric

import (
	"testing"

	"pifsrec/internal/cxl"
	"pifsrec/internal/dram"
	"pifsrec/internal/isa"
	"pifsrec/internal/osb"
	"pifsrec/internal/pifs"
	"pifsrec/internal/sim"
)

// vecBytes is the rig's row-vector size: one 64 B line.
const vecBytes = 64

func smallGeo() dram.Geometry {
	return dram.Geometry{Channels: 2, Ranks: 1, BankGroups: 2, Banks: 2, Rows: 1024, RowBytes: 2048}
}

func pifsCfg() Config {
	return Config{PortID: 7, HasCore: true, Core: pifs.DefaultConfig()}
}

// host stands in for the host socket: the endpoint every switch's HostUp
// link delivers to. It records each payload with its delivery tick.
type host struct {
	sim.NoWindowHooks
	got []delivery
}

type delivery struct {
	at sim.Tick
	p  sim.Payload
}

func (h *host) ComponentGroup() int32 { return 0 }
func (h *host) CostWeight() float64   { return 1 }
func (h *host) HandleMsg(env sim.Envelope) {
	h.got = append(h.got, delivery{at: env.At, p: env.P})
}

// rig drives switches through the same HandleMsg paths engine.Run uses: a
// one-worker sharded engine with the host on group 0, switch w on group
// 1+w, and each switch's Type 3 devices on their own groups after the
// switches (endpoint == group). Links are bound in the engine's port order:
// host links, then downstream ports, then peer channels.
type rig struct {
	se      *sim.ShardedEngine
	host    *host
	down    []*cxl.Link // host -> switch w
	sws     []*Switch
	devs    [][]*cxl.Type3Device
	peerRsp [][]*cxl.Link // [from][to] partial and raw-row returns
}

// newRig builds one switch per config, with ID set to its index, and devs
// devices behind each. A config without a Route stripes 4 KB frames
// round-robin across its switch's devices.
func newRig(devs int, cfgs ...Config) *rig {
	S := len(cfgs)
	r := &rig{se: sim.NewSharded(1, cxl.PortOverheadNS), host: &host{}}
	for g := 0; g < 1+S+S*devs; g++ {
		r.se.NewGroup(0)
	}
	swGroup := func(w int) int32 { return int32(1 + w) }
	devGroup := func(w, d int) int32 { return int32(1 + S + w*devs + d) }
	devCap := uint64(smallGeo().Capacity())
	for w, cfg := range cfgs {
		cfg.ID = w
		if cfg.Route == nil {
			cfg.Route = func(addr uint64) (int, uint64) {
				frame := addr / 4096
				local := (frame/uint64(devs))*4096 + addr%4096
				return int(frame % uint64(devs)), local % devCap
			}
		}
		r.sws = append(r.sws, New(r.se.Group(int(swGroup(w))), cfg))
		var ds []*cxl.Type3Device
		for d := 0; d < devs; d++ {
			g := devGroup(w, d)
			ds = append(ds, cxl.NewType3(r.se.Group(int(g)), cxl.DeviceConfig{
				ID: d, PortID: uint16(100 + d), Geometry: smallGeo(), Timing: dram.DDR4_3200(), Group: g,
			}))
		}
		r.devs = append(r.devs, ds)
	}

	link := func(from, to int32, gbps float64, prop sim.Tick) *cxl.Link {
		l := cxl.NewLink(r.se.Group(int(from)), "t", gbps, prop)
		l.Bind(r.se.Outbox(int(from)), r.se.NewPort(), to, to)
		return l
	}
	hostUp := make([]*cxl.Link, S)
	for w := range r.sws {
		r.down = append(r.down, link(0, swGroup(w), cxl.PCIe5x16GBs, cxl.PortOverheadNS))
		hostUp[w] = link(swGroup(w), 0, cxl.PCIe5x16GBs, cxl.PortOverheadNS)
	}
	devDown := make([][]*cxl.Link, S)
	for w, sw := range r.sws {
		for d, dev := range r.devs[w] {
			devDown[w] = append(devDown[w],
				link(swGroup(w), devGroup(w, d), sw.DSPBandwidthGBs(), cxl.PortOverheadNS))
			dev.Bind(link(devGroup(w, d), swGroup(w), sw.DSPBandwidthGBs(), cxl.PortOverheadNS), vecBytes)
		}
	}
	peerReq := make([][]*cxl.Link, S)
	r.peerRsp = make([][]*cxl.Link, S)
	hasCore := make([]bool, S)
	for a, sw := range r.sws {
		hasCore[a] = sw.HasCore()
		peerReq[a] = make([]*cxl.Link, S)
		r.peerRsp[a] = make([]*cxl.Link, S)
		for b := range r.sws {
			if a != b {
				peerReq[a][b] = link(swGroup(a), swGroup(b), sw.DSPBandwidthGBs(), cxl.SwitchForwardNS)
				r.peerRsp[a][b] = link(swGroup(a), swGroup(b), sw.DSPBandwidthGBs(), cxl.SwitchForwardNS)
			}
		}
	}
	for w, sw := range r.sws {
		sw.BindNet(Net{
			Group: swGroup(w), VecBytes: vecBytes,
			HostUp: []*cxl.Link{hostUp[w]}, DevDown: devDown[w],
			PeerReq: peerReq[w], PeerRsp: r.peerRsp[w], PeerHasCore: hasCore,
		})
	}

	r.se.Register(r.host)
	for _, sw := range r.sws {
		r.se.Register(sw)
	}
	for _, ds := range r.devs {
		for _, dev := range ds {
			r.se.Register(dev)
		}
	}
	return r
}

// run drains the fabric, then advances every group to the latest group
// time, so sends made before the next run start after everything before
// them. It returns that time.
func (r *rig) run() sim.Tick {
	r.se.Run()
	var end sim.Tick
	for g := 0; g < r.se.Groups(); g++ {
		if now := r.se.Group(g).Now(); now > end {
			end = now
		}
	}
	for g := 0; g < r.se.Groups(); g++ {
		r.se.Group(g).RunUntil(end)
	}
	return end
}

// bypass sends switch w a standard MemRd for addr (KindBypassRow).
func (r *rig) bypass(w int, addr uint64, tag uint8) {
	r.down[w].SendMsg(isa.SlotBytes, sim.Payload{Kind: KindBypassRow, A: addr, Tag: tag}, nil)
}

// stream sends switch w a PIFS instruction stream: the Configuration for key
// expecting candidates vectors, then one DataFetch per address.
func (r *rig) stream(w int, key pifs.ClusterKey, candidates int, tag uint8, addrs ...uint64) {
	r.down[w].SendMsg(isa.SlotBytes*(1+len(addrs)), sim.Payload{
		Kind: KindPIFSStream, B: PackKey(key), U1: int32(candidates), Tag: tag,
	}, addrs)
}

// peerBatch asks switch w to forward addrs to switch peer, accumulated there
// under sub and folded into key on return.
func (r *rig) peerBatch(w, peer int, sub, key pifs.ClusterKey, addrs ...uint64) {
	r.down[w].SendMsg(isa.SlotBytes*len(addrs), sim.Payload{
		Kind: KindPeerBatch, A: PackKey(sub), B: PackKey(key), U0: int32(peer),
	}, addrs)
}

// only returns the host's single delivery, failing unless exactly one
// payload arrived and it has the given kind and tag.
func (r *rig) only(t *testing.T, kind uint16, tag uint8) delivery {
	t.Helper()
	if len(r.host.got) != 1 || r.host.got[0].p.Kind != kind || r.host.got[0].p.Tag != tag {
		t.Fatalf("host got %+v, want one kind %#x tag %d", r.host.got, kind, tag)
	}
	return r.host.got[0]
}

func TestBypassReadCompletes(t *testing.T) {
	r := newRig(2, Config{})
	r.bypass(0, 0, 5)
	r.run()
	d := r.only(t, KindRowData, 5)
	// Must include two host-link and two DSP crossings, bypass latency, and
	// DRAM time: well over the raw 100 ns CXL penalty.
	if d.at < cxl.AccessPenaltyNS {
		t.Fatalf("bypass read %d ns implausibly fast", d.at)
	}
	if st := r.sws[0].Stats(); st.BypassReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPIFSAccumulationRoundTrip(t *testing.T) {
	r := newRig(2, pifsCfg())
	r.stream(0, pifs.ClusterKey{SPID: 1, SumTag: 2}, 4, 2, 0, 4096, 8192, 12288)
	r.run()
	r.only(t, KindPIFSResult, 2)
	sw := r.sws[0]
	if st := sw.Stats(); st.PIFSFetches != 4 || st.PIFSConfigs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if n := sw.Core.Stats().RowsFolded; n != 4 {
		t.Fatalf("core folded %d rows, want 4", n)
	}
	if n := sw.InFlightRecords(); n != 0 {
		t.Fatalf("%d transfer records leaked", n)
	}
}

func TestPIFSWithoutCorePanics(t *testing.T) {
	r := newRig(1, Config{})
	defer func() {
		if recover() == nil {
			t.Error("PIFS stream on a CNV=0 switch did not panic")
		}
	}()
	r.sws[0].HandleMsg(sim.Envelope{P: sim.Payload{Kind: KindPIFSStream, U1: 1}})
}

func TestBufferHitSkipsDevice(t *testing.T) {
	cfg := pifsCfg()
	cfg.BufferBytes = osb.MinCapacity
	r := newRig(2, cfg)
	// The first fetch misses and inserts; the second hits.
	r.stream(0, pifs.ClusterKey{SumTag: 1}, 2, 1, 4096, 4096)
	r.run()
	r.only(t, KindPIFSResult, 1)
	st := r.sws[0].Stats()
	if st.BufferHits != 1 || st.BufferMisses != 1 {
		t.Fatalf("buffer hits/misses = %d/%d, want 1/1", st.BufferHits, st.BufferMisses)
	}
	// Devices saw exactly one vector's worth of reads (64 B = 1 line).
	if reads := r.devs[0][0].Stats().Reads + r.devs[0][1].Stats().Reads; reads != 1 {
		t.Fatalf("device reads = %d, want 1 (second access served by buffer)", reads)
	}
}

func TestBufferHitLatencyLower(t *testing.T) {
	run := func(buffered bool) sim.Tick {
		cfg := pifsCfg()
		if buffered {
			cfg.BufferBytes = osb.MinCapacity
		}
		r := newRig(1, cfg)
		// Warm once, then time the second round.
		r.stream(0, pifs.ClusterKey{SumTag: 1}, 1, 1, 0)
		start := r.run()
		r.host.got = r.host.got[:0]
		r.stream(0, pifs.ClusterKey{SumTag: 2}, 1, 2, 0)
		r.run()
		return r.only(t, KindPIFSResult, 2).at - start
	}
	hot := run(true)
	cold := run(false)
	if hot >= cold {
		t.Fatalf("buffered rerun (%d ns) not faster than unbuffered (%d ns)", hot, cold)
	}
}

func TestForwardFetchWithCorePeer(t *testing.T) {
	r := newRig(1, pifsCfg(), pifsCfg())
	key := pifs.ClusterKey{SPID: 1, SumTag: 1}
	sub := pifs.ClusterKey{SPID: 1, SumTag: 63} // sub-cluster on the peer
	// Local cluster: 2 local rows + 1 partial sum from the peer switch.
	r.stream(0, key, 3, 1, 0, 4096)
	r.peerBatch(0, 1, sub, key, 0, 4096, 8192)
	r.run()
	d := r.only(t, KindPIFSResult, 1)
	// Forwarding latency must include two inter-switch crossings.
	if d.at < 2*cxl.SwitchForwardNS {
		t.Fatalf("result at %d ns, too fast for two switch hops", d.at)
	}
	local, peer := r.sws[0], r.sws[1]
	if local.Stats().Forwarded != 1 || peer.Stats().Received != 1 {
		t.Fatalf("forward counters: local %+v peer %+v", local.Stats(), peer.Stats())
	}
	if n := peer.Core.Stats().RowsFolded; n != 3 {
		t.Fatalf("peer folded %d rows, want 3", n)
	}
	// The peer returned one partial, not three rows.
	if n := r.peerRsp[1][0].Stats().Transfers; n != 1 {
		t.Fatalf("peer sent %d replies, want 1 partial", n)
	}
}

func TestForwardFetchToCorelessPeer(t *testing.T) {
	// A CNV=0 peer cannot pre-accumulate: each raw row returns as its own
	// KindFwdReply, and the local side folds the set as one candidate once
	// the last row is back.
	run := func(addrs ...uint64) (sim.Tick, *rig) {
		r := newRig(1, pifsCfg(), Config{})
		key := pifs.ClusterKey{SumTag: 5}
		r.stream(0, key, 1, 5)
		r.peerBatch(0, 1, pifs.ClusterKey{}, key, addrs...)
		r.run()
		return r.only(t, KindPIFSResult, 5).at, r
	}
	three, r := run(0, 4096, 8192)
	if n := r.sws[1].Stats().BypassReads; n != 3 {
		t.Fatalf("peer bypass reads = %d, want 3", n)
	}
	if n := r.peerRsp[1][0].Stats().Transfers; n != 3 {
		t.Fatalf("peer sent %d replies, want 3 raw rows", n)
	}
	if n := r.sws[0].Core.Stats().RowsFolded; n != 1 {
		t.Fatalf("local core folded %d candidates, want 1", n)
	}
	// Waiting for the last of three rows must take longer than for one.
	if one, _ := run(0); three <= one {
		t.Fatalf("three-row forward done at %d ns, not after one-row %d ns", three, one)
	}
}

func TestInvalidateBuffer(t *testing.T) {
	cfg := pifsCfg()
	cfg.BufferBytes = osb.MinCapacity
	r := newRig(1, cfg, Config{})
	r.stream(0, pifs.ClusterKey{SumTag: 1}, 1, 1, 0)
	r.run()
	sw := r.sws[0]
	if !sw.Buffer.Contains(0) {
		t.Fatal("vector not cached after miss")
	}
	if n := sw.InvalidateBufferRange(0, 64); n != 1 {
		t.Fatalf("InvalidateBufferRange dropped %d vectors, want 1", n)
	}
	if sw.Buffer.Contains(0) {
		t.Fatal("vector survived invalidation")
	}
	// No-op on a coreless, bufferless switch.
	if n := r.sws[1].InvalidateBufferRange(0, 64); n != 0 {
		t.Fatalf("bufferless switch dropped %d vectors", n)
	}
}

func TestConcurrentClustersInterleaveOnCore(t *testing.T) {
	cfg := pifsCfg()
	cfg.Core.Lanes = 1 // single lane so interleaved clusters must swap
	r := newRig(2, cfg)
	// Cluster 0's rows live on device 0 and cluster 1's on device 1: the two
	// devices return in parallel, so the core sees the tags interleave.
	for tag := uint8(0); tag < 2; tag++ {
		var addrs []uint64
		for i := 0; i < 4; i++ {
			addrs = append(addrs, uint64((i*2+int(tag))*4096))
		}
		r.stream(0, pifs.ClusterKey{SumTag: tag}, len(addrs), tag, addrs...)
	}
	r.run()
	if n := len(r.host.got); n != 2 {
		t.Fatalf("completions = %d, want 2", n)
	}
	if r.sws[0].Core.Stats().TagSwitches == 0 {
		t.Error("no tag switches despite interleaved clusters")
	}
}

// TestSwitchMessagePathSteadyStateZeroAlloc pins the switch's pooled
// protocol: once arenas are warm, a bypass round trip plus a PIFS-stream
// round trip through the rig allocates nothing.
func TestSwitchMessagePathSteadyStateZeroAlloc(t *testing.T) {
	r := newRig(2, pifsCfg())
	key := pifs.ClusterKey{SPID: 1, SumTag: 3}
	addrs := []uint64{0, 4096, 8192, 12288}
	cycle := func() {
		r.host.got = r.host.got[:0]
		r.bypass(0, 4096, 1)
		r.stream(0, key, len(addrs), 2, addrs...)
		r.run()
		if len(r.host.got) != 2 {
			t.Fatalf("host got %d deliveries, want 2", len(r.host.got))
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Errorf("steady-state switch round trips allocate %.1f objects/run, want 0", allocs)
	}
	if n := r.sws[0].InFlightRecords(); n != 0 {
		t.Fatalf("%d transfer records leaked", n)
	}
}
