package cxl

import (
	"testing"
	"testing/quick"

	"pifsrec/internal/dram"
	"pifsrec/internal/sim"
)

// sink is a message endpoint that records every payload delivered to it
// with its delivery tick.
type sink struct {
	group int32
	got   []delivery
}

type delivery struct {
	at sim.Tick
	p  sim.Payload
}

func (k *sink) ComponentGroup() int32 { return k.group }
func (k *sink) CostWeight() float64   { return 1 }
func (k *sink) HandleMsg(env sim.Envelope) {
	k.got = append(k.got, delivery{at: env.At, p: env.P})
}

// newRig builds the test rig: a one-worker sharded engine with two
// placement groups, a sink registered as endpoint 0 on group 0, and group 1
// left for the component under test (endpoint == group, as in the engine).
func newRig(window sim.Tick) (*sim.ShardedEngine, *sink) {
	se := sim.NewSharded(1, window)
	se.NewGroup()
	se.NewGroup()
	k := &sink{}
	se.Register(k)
	return se, k
}

// bindLink builds a link owned by group from and bound to the endpoint on
// group to, allocating its port the way the engine's link wiring does.
func bindLink(se *sim.ShardedEngine, from, to int32, gbps float64, prop sim.Tick) *Link {
	l := NewLink(se.Group(int(from)), "t", gbps, prop)
	l.Bind(se.Outbox(int(from)), se.NewPort(), to, to)
	return l
}

func TestLinkSingleTransfer(t *testing.T) {
	se, k := newRig(1)
	l := bindLink(se, 1, 0, 64, 20) // 64 GB/s, 20 ns propagation
	l.SendMsg(640, sim.Payload{U0: 9}, nil)
	se.Run()
	// 640 B at 64 B/ns = 10 ns serialization + 20 ns propagation = 30.
	if len(k.got) != 1 || k.got[0].at != 30 || k.got[0].p.U0 != 9 {
		t.Fatalf("deliveries %+v, want one U0=9 payload at 30", k.got)
	}
}

func TestLinkSerialization(t *testing.T) {
	se, k := newRig(1)
	l := bindLink(se, 1, 0, 64, 0)
	l.SendMsg(6400, sim.Payload{U0: 1}, nil) // 100 ns
	l.SendMsg(6400, sim.Payload{U0: 2}, nil) // queues behind
	se.Run()
	if len(k.got) != 2 || k.got[0].at != 100 || k.got[1].at != 200 || k.got[1].p.U0 != 2 {
		t.Fatalf("deliveries %+v, want U0=1 at 100 then U0=2 at 200", k.got)
	}
	st := l.Stats()
	if st.Transfers != 2 || st.BytesMoved != 12800 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WaitNS != 100 {
		t.Fatalf("WaitNS = %d, want 100 (second transfer queued)", st.WaitNS)
	}
}

func TestLinkMinimumOccupancy(t *testing.T) {
	se, k := newRig(1)
	l := bindLink(se, 1, 0, 64, 0)
	l.SendMsg(16, sim.Payload{}, nil) // sub-ns payload
	se.Run()
	if len(k.got) != 1 || k.got[0].at < 1 {
		t.Fatalf("deliveries %+v, want one at >= 1 ns occupancy", k.got)
	}
}

func TestLinkUtilization(t *testing.T) {
	se, _ := newRig(1)
	l := bindLink(se, 1, 0, 64, 0)
	l.SendMsg(6400, sim.Payload{}, nil) // 100 ns busy
	se.Group(1).At(200, func() {})
	se.Run()
	u := l.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestLinkBandwidthProperty(t *testing.T) {
	// Property: N back-to-back transfers of the same size complete no faster
	// than bytes/bandwidth allows.
	f := func(nRaw, szRaw uint8) bool {
		n := int(nRaw%20) + 1
		size := (int(szRaw%64) + 1) * 64
		se, k := newRig(1)
		l := bindLink(se, 1, 0, 64, 0)
		for i := 0; i < n; i++ {
			l.SendMsg(size, sim.Payload{}, nil)
		}
		se.Run()
		minNS := sim.Tick(float64(n*size) / 64.0)
		// One link delivers in arrival order, so the last delivery is the latest.
		return len(k.got) == n && k.got[n-1].at >= minNS
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkPanicsOnBadArgs(t *testing.T) {
	se, _ := newRig(1)
	cases := map[string]func(){
		"zero bandwidth": func() { NewLink(se.Group(1), "bad", 0, 0) },
		"zero-byte send": func() { bindLink(se, 1, 0, 1, 0).SendMsg(0, sim.Payload{}, nil) },
		"send before Bind": func() {
			NewLink(se.Group(1), "unbound", 1, 0).SendMsg(64, sim.Payload{}, nil)
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			fn()
		}()
	}
}

// TestDuplexIndependentDirections checks that the two directions of a
// FlexBus connection — one link each way — do not contend.
func TestDuplexIndependentDirections(t *testing.T) {
	se, near := newRig(1)
	far := &sink{group: 1}
	se.Register(far)
	down := bindLink(se, 0, 1, 64, 10)
	up := bindLink(se, 1, 0, 64, 10)
	down.SendMsg(6400, sim.Payload{}, nil)
	up.SendMsg(6400, sim.Payload{}, nil)
	se.Run()
	// Both should finish at 100 ns serialization + 10 ns propagation.
	if len(far.got) != 1 || len(near.got) != 1 || far.got[0].at != 110 || near.got[0].at != 110 {
		t.Fatalf("down=%+v up=%+v, want one delivery each at 110", far.got, near.got)
	}
}

func smallGeo() dram.Geometry {
	return dram.Geometry{Channels: 2, Ranks: 1, BankGroups: 2, Banks: 2, Rows: 256, RowBytes: 1024}
}

// newDeviceRig puts a Type 3 device on group 1 and wires it to the sink the
// way the engine wires a downstream port: a request link from the sink's
// group and the device-owned reply link, both at x16 bandwidth with the
// per-traversal port overhead. It returns the request link.
func newDeviceRig(vecBytes int) (*sim.ShardedEngine, *sink, *Type3Device, *Link) {
	se, k := newRig(PortOverheadNS)
	dev := NewType3(se.Group(1), DeviceConfig{Geometry: smallGeo(), Timing: dram.DDR4_3200(), Group: 1})
	req := bindLink(se, 0, 1, PCIe5x16GBs, PortOverheadNS)
	dev.Bind(bindLink(se, 1, 0, PCIe5x16GBs, PortOverheadNS), vecBytes)
	se.Register(dev)
	return se, k, dev, req
}

// TestType3AccessAddsControllerOverhead checks a read's reply time: raw
// DRAM service from the request's arrival, plus the device controller's
// half of the CXL access penalty, plus the reply link's transfer time.
func TestType3AccessAddsControllerOverhead(t *testing.T) {
	se, k, _, req := newDeviceRig(64)
	arrive := req.SendMsg(16, sim.Payload{Kind: KindDevRead, A: 0, U0: 7}, nil)
	se.Run()
	if len(k.got) != 1 || k.got[0].p.Kind != KindDevData || k.got[0].p.U0 != 7 {
		t.Fatalf("replies %+v, want one KindDevData echoing token 7", k.got)
	}

	// The same read on a bare controller, submitted at the arrival time.
	eng := sim.NewEngine()
	raw := dram.NewController(eng, smallGeo(), dram.DDR4_3200())
	var rawDone sim.Tick
	eng.At(arrive, func() {
		raw.SubmitRange(0, 64, false, 0, func(_ int32, at sim.Tick) { rawDone = at }, 0)
	})
	eng.Run()

	// 64 B at 64 GB/s serializes in 1 ns, then propagates PortOverheadNS.
	want := rawDone + AccessPenaltyNS/2 + 1 + PortOverheadNS
	if got := k.got[0].at; got != want {
		t.Fatalf("reply at %d ns, want %d (raw DRAM done at %d)", got, want, rawDone)
	}
}

func TestType3AccessVector(t *testing.T) {
	se, k, dev, req := newDeviceRig(256)
	req.SendMsg(16, sim.Payload{Kind: KindDevRead, A: 0}, nil)
	se.Run()
	if len(k.got) != 1 {
		t.Fatalf("vector read produced %d replies, want 1", len(k.got))
	}
	if st := dev.Stats(); st.Reads != 4 {
		t.Fatalf("256 B vector should issue 4 line reads, got %d", st.Reads)
	}
}

// TestType3VectorValidation checks Bind rejects a vector size that is not a
// positive multiple of the 64 B line at wiring time.
func TestType3VectorValidation(t *testing.T) {
	for _, vec := range []int{100, 0, -64} {
		func() {
			se, _ := newRig(PortOverheadNS)
			dev := NewType3(se.Group(1), DeviceConfig{Geometry: smallGeo(), Timing: dram.DDR4_3200(), Group: 1})
			reply := bindLink(se, 1, 0, PCIe5x16GBs, PortOverheadNS)
			defer func() {
				if recover() == nil {
					t.Errorf("vector size %d accepted", vec)
				}
			}()
			dev.Bind(reply, vec)
		}()
	}
}

func TestType3OutOfRangePanics(t *testing.T) {
	_, _, dev, _ := newDeviceRig(64)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access accepted")
		}
	}()
	dev.HandleMsg(sim.Envelope{P: sim.Payload{Kind: KindDevRead, A: uint64(dev.Capacity())}})
}
