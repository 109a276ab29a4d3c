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

func smallGeo() dram.Geometry {
	return dram.Geometry{Channels: 2, Ranks: 1, BankGroups: 2, Banks: 2, Rows: 1024, RowBytes: 2048}
}

// testSwitch builds a switch with n devices and an identity-by-stripe route:
// consecutive 4 KB frames round-robin across devices.
func testSwitch(t *testing.T, eng *sim.Engine, cfg Config, n int) *Switch {
	t.Helper()
	devCap := smallGeo().Capacity()
	if cfg.Route == nil {
		cfg.Route = func(addr uint64) (int, uint64) {
			frame := addr / 4096
			dev := int(frame) % n
			local := (frame/uint64(n))*4096 + addr%4096
			return dev, local % uint64(devCap)
		}
	}
	s := New(eng, cfg)
	for i := 0; i < n; i++ {
		s.AttachDevice(cxl.NewType3(eng, cxl.DeviceConfig{
			ID: i, PortID: uint16(100 + i), Geometry: smallGeo(), Timing: dram.DDR4_3200(),
		}))
	}
	return s
}

func pifsCfg() Config {
	return Config{ID: 0, PortID: 7, HasCore: true, Core: pifs.DefaultConfig()}
}

func TestBypassReadCompletes(t *testing.T) {
	eng := sim.NewEngine()
	s := testSwitch(t, eng, Config{ID: 0}, 2)
	var done sim.Tick
	s.BypassRead(0, 64, func(at sim.Tick) { done = at })
	eng.Run()
	if done == 0 {
		t.Fatal("bypass read never completed")
	}
	// Must include bypass latency, two port crossings, and DRAM time:
	// well over the raw 100 ns CXL penalty.
	if done < 100 {
		t.Fatalf("bypass read %d ns implausibly fast", done)
	}
	if s.Stats().BypassReads != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestPIFSAccumulationRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	s := testSwitch(t, eng, pifsCfg(), 2)
	key := pifs.ClusterKey{SPID: 1, SumTag: 2}
	var resultAt sim.Tick
	s.PIFSConfigure(key, 4, 64, 0x8000, func(at sim.Tick) { resultAt = at })
	for i := 0; i < 4; i++ {
		s.PIFSFetch(key, uint64(i*4096), 64)
	}
	eng.Run()
	if resultAt == 0 {
		t.Fatal("accumulation never completed")
	}
	if s.Stats().PIFSFetches != 4 || s.Stats().PIFSConfigs != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
	if s.Core.Stats().RowsFolded != 4 {
		t.Fatalf("core folded %d rows, want 4", s.Core.Stats().RowsFolded)
	}
}

func TestPIFSWithoutCorePanics(t *testing.T) {
	eng := sim.NewEngine()
	s := testSwitch(t, eng, Config{ID: 0}, 1)
	defer func() {
		if recover() == nil {
			t.Error("PIFSFetch on CNV=0 switch did not panic")
		}
	}()
	s.PIFSFetch(pifs.ClusterKey{}, 0, 64)
}

func TestBufferHitSkipsDevice(t *testing.T) {
	eng := sim.NewEngine()
	cfg := pifsCfg()
	cfg.BufferBytes = osb.MinCapacity
	s := testSwitch(t, eng, cfg, 2)
	key := pifs.ClusterKey{SumTag: 1}
	// Prime: first access misses and inserts.
	s.PIFSConfigure(key, 2, 64, 0, func(sim.Tick) {})
	s.PIFSFetch(key, 4096, 64)
	s.PIFSFetch(key, 4096, 64)
	eng.Run()
	st := s.Stats()
	if st.BufferHits != 1 || st.BufferMisses != 1 {
		t.Fatalf("buffer hits/misses = %d/%d, want 1/1", st.BufferHits, st.BufferMisses)
	}
	// Device saw exactly one vector's worth of reads (64 B = 1 line).
	reads := s.Device(0).Stats().Reads + s.Device(1).Stats().Reads
	if reads != 1 {
		t.Fatalf("device reads = %d, want 1 (second access served by buffer)", reads)
	}
}

func TestBufferHitLatencyLower(t *testing.T) {
	run := func(buffered bool) sim.Tick {
		eng := sim.NewEngine()
		cfg := pifsCfg()
		if buffered {
			cfg.BufferBytes = osb.MinCapacity
		}
		s := testSwitch(t, eng, cfg, 1)
		key := pifs.ClusterKey{SumTag: 1}
		// Warm once, then time the second round.
		var warmDone sim.Tick
		s.PIFSConfigure(key, 1, 64, 0, func(at sim.Tick) { warmDone = at })
		s.PIFSFetch(key, 0, 64)
		eng.Run()
		key2 := pifs.ClusterKey{SumTag: 2}
		var second sim.Tick
		start := eng.Now()
		s.PIFSConfigure(key2, 1, 64, 0, func(at sim.Tick) { second = at })
		s.PIFSFetch(key2, 0, 64)
		eng.Run()
		_ = warmDone
		return second - start
	}
	hot := run(true)
	cold := run(false)
	if hot >= cold {
		t.Fatalf("buffered rerun (%d ns) not faster than unbuffered (%d ns)", hot, cold)
	}
}

func TestSubmitSlotDispatch(t *testing.T) {
	eng := sim.NewEngine()
	cfg := pifsCfg()
	s := testSwitch(t, eng, cfg, 1)

	// Standard read through the encoded-slot path.
	rd := isa.Instruction{Valid: true, Opcode: isa.OpMemRd, VecSize: 2 /* 64 B */}
	slot, err := rd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var done sim.Tick
	if err := s.SubmitSlot(slot, func(at sim.Tick) { done = at }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if done == 0 {
		t.Fatal("slot-submitted read never completed")
	}

	// DataFetch through the slot path folds into a configured cluster.
	key := pifs.ClusterKey{SPID: 9, SumTag: 3}
	completed := false
	s.PIFSConfigure(key, 1, 64, 0, func(sim.Tick) { completed = true })
	df, err := isa.NewDataFetch(1, 4096, 9, 3, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	slot2, _ := df.Encode()
	if err := s.SubmitSlot(slot2, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !completed {
		t.Fatal("slot-submitted DataFetch never folded")
	}

	// Invalid slot rejected.
	if err := s.SubmitSlot(isa.Slot{}, nil); err == nil {
		t.Error("invalid slot accepted")
	}
}

func TestForwardFetchWithCorePeer(t *testing.T) {
	eng := sim.NewEngine()
	local := testSwitch(t, eng, pifsCfg(), 1)
	remoteCfg := pifsCfg()
	remoteCfg.ID = 1
	remoteCfg.PortID = 8
	remote := testSwitch(t, eng, remoteCfg, 1)
	local.Connect(remote)

	key := pifs.ClusterKey{SPID: 1, SumTag: 1}
	var resultAt sim.Tick
	// Local cluster: 2 local rows + 1 sub-sum from the remote switch.
	local.PIFSConfigure(key, 3, 64, 0, func(at sim.Tick) { resultAt = at })
	local.PIFSFetch(key, 0, 64)
	local.PIFSFetch(key, 4096, 64)
	sub := pifs.ClusterKey{SPID: 1, SumTag: 63} // sub-cluster on the remote
	local.ForwardFetch(remote, sub, []uint64{0, 4096, 8192}, 64, func(sim.Tick) {
		local.Core.Data(key)
	})
	eng.Run()
	if resultAt == 0 {
		t.Fatal("scaled-out accumulation never completed")
	}
	// Forwarding latency must include two inter-switch crossings.
	if resultAt < 2*cxl.SwitchForwardNS {
		t.Fatalf("result at %d ns, too fast for two switch hops", resultAt)
	}
	if local.Stats().Forwarded != 1 || remote.Stats().Received != 1 {
		t.Fatal("forward counters wrong")
	}
	if remote.Core.Stats().RowsFolded != 3 {
		t.Fatalf("remote folded %d rows, want 3", remote.Core.Stats().RowsFolded)
	}
}

func TestForwardFetchToCorelessPeer(t *testing.T) {
	eng := sim.NewEngine()
	local := testSwitch(t, eng, pifsCfg(), 1)
	dumbCfg := Config{ID: 2}
	dumb := testSwitch(t, eng, dumbCfg, 1)
	local.Connect(dumb)

	key := pifs.ClusterKey{SumTag: 5}
	done := false
	// All three raw vectors come back; they count as 3 candidates locally
	// because the CNV=0 peer cannot pre-accumulate.
	local.PIFSConfigure(key, 3, 64, 0, func(sim.Tick) { done = true })
	local.ForwardFetch(dumb, pifs.ClusterKey{}, []uint64{0, 4096, 8192}, 64, func(sim.Tick) {
		// With a compute-less peer, done fires once after the last vector;
		// fold all three.
		local.Core.Data(key)
		local.Core.Data(key)
		local.Core.Data(key)
	})
	eng.Run()
	if !done {
		t.Fatal("coreless-peer accumulation never completed")
	}
	if dumb.Stats().BypassReads != 3 {
		t.Fatalf("peer bypass reads = %d, want 3", dumb.Stats().BypassReads)
	}
}

func TestConnectIsSymmetricAndIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	a := testSwitch(t, eng, pifsCfg(), 1)
	bCfg := pifsCfg()
	bCfg.ID = 1
	b := testSwitch(t, eng, bCfg, 1)
	a.Connect(b)
	a.Connect(b) // second connect must be a no-op
	if len(a.peers) != 1 || len(b.peers) != 1 {
		t.Fatalf("peer counts %d/%d, want 1/1", len(a.peers), len(b.peers))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("self-connect accepted")
			}
		}()
		a.Connect(a)
	}()
}

func TestInvalidateBuffer(t *testing.T) {
	eng := sim.NewEngine()
	cfg := pifsCfg()
	cfg.BufferBytes = osb.MinCapacity
	s := testSwitch(t, eng, cfg, 1)
	key := pifs.ClusterKey{SumTag: 1}
	s.PIFSConfigure(key, 1, 64, 0, func(sim.Tick) {})
	s.PIFSFetch(key, 0, 64)
	eng.Run()
	if !s.Buffer.Contains(0) {
		t.Fatal("vector not cached after miss")
	}
	if n := s.InvalidateBufferRange(0, 64); n != 1 {
		t.Fatalf("InvalidateBufferRange dropped %d vectors, want 1", n)
	}
	if s.Buffer.Contains(0) {
		t.Fatal("vector survived invalidation")
	}
	// No-op on a coreless, bufferless switch.
	plain := testSwitch(t, eng, Config{ID: 9}, 1)
	if n := plain.InvalidateBufferRange(0, 64); n != 0 {
		t.Fatalf("bufferless switch dropped %d vectors", n)
	}
}

func TestConcurrentClustersInterleaveOnCore(t *testing.T) {
	eng := sim.NewEngine()
	cfg := pifsCfg()
	cfg.Core.Lanes = 1 // single lane so interleaved clusters must swap
	s := testSwitch(t, eng, cfg, 1)
	completions := 0
	for tag := 0; tag < 2; tag++ {
		key := pifs.ClusterKey{SumTag: uint8(tag)}
		s.PIFSConfigure(key, 4, 64, 0, func(sim.Tick) { completions++ })
	}
	// Alternate fetches between the two clusters on a single device: its
	// serial completion order forces the core to flip sumtags every row.
	for i := 0; i < 4; i++ {
		for tag := 0; tag < 2; tag++ {
			key := pifs.ClusterKey{SumTag: uint8(tag)}
			s.PIFSFetch(key, uint64((i*2+tag)*4096), 64)
		}
	}
	eng.Run()
	if completions != 2 {
		t.Fatalf("completions = %d, want 2", completions)
	}
	// Interleaved device completions should have exercised tag switching.
	if s.Core.Stats().TagSwitches == 0 {
		t.Error("no tag switches despite interleaved clusters")
	}
}
