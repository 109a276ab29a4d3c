package dram

import (
	"testing"

	"pifsrec/internal/sim"
)

func testController(geo Geometry, tim Timing) (*sim.Engine, *Controller) {
	eng := sim.NewEngine()
	return eng, NewController(eng, geo, tim)
}

// submitLine queues one 64 B line as a single-line batch; done receives its
// completion time. Tests trade the token API's zero allocation for a closure
// per line.
func submitLine(c *Controller, addr uint64, write bool, done func(at sim.Tick)) {
	c.SubmitRange(addr, accessBytes, write, 0, func(_ int32, at sim.Tick) { done(at) }, 0)
}

func readAt(eng *sim.Engine, c *Controller, addr uint64, at sim.Tick, out *sim.Tick) {
	eng.At(at, func() {
		submitLine(c, addr, false, func(done sim.Tick) { *out = done })
	})
}

func TestSingleReadLatency(t *testing.T) {
	tim := DDR5_4800()
	eng, c := testController(Table2Geometry(), tim)
	var done sim.Tick
	readAt(eng, c, 0, 0, &done)
	eng.Run()
	// Closed bank: activate at ~0, column read after tRCD, data after CL,
	// done after the burst: ns(28)+ns(28)+ns(4) = 18+18+3 = 39.
	want := tim.ns(tim.RCD) + tim.ns(tim.CL) + tim.BurstNS()
	if done != want {
		t.Fatalf("first-read latency = %d ns, want %d ns", done, want)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	tim := DDR5_4800()
	geo := Table2Geometry()
	eng, c := testController(geo, tim)

	var d1, d2, d3 sim.Tick
	readAt(eng, c, 0, 0, &d1)
	// Same row (next column, same channel): stride = 64*channels.
	hitAddr := uint64(accessBytes * geo.Channels)
	readAt(eng, c, hitAddr, 1000, &d2)
	// Different row, same bank: stride jumps a full row sweep * banks...
	// Easiest: same channel, same bank, different row via Unmap.
	l := geo.Map(0)
	l.Row = 5
	missAddr := geo.Unmap(l)
	readAt(eng, c, missAddr, 2000, &d3)
	eng.Run()

	hitLat := d2 - 1000
	missLat := d3 - 2000
	if hitLat >= missLat {
		t.Fatalf("row hit (%d ns) not faster than row miss (%d ns)", hitLat, missLat)
	}
	// A hit costs roughly CL + burst.
	want := tim.ns(tim.CL) + tim.BurstNS()
	if hitLat != want {
		t.Fatalf("hit latency = %d, want %d", hitLat, want)
	}
	st := c.Stats()
	if st.RowHits != 1 || st.RowMisses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", st.RowHits, st.RowMisses)
	}
}

func TestStreamingBandwidth(t *testing.T) {
	tim := DDR5_4800()
	geo := Table2Geometry()
	eng, c := testController(geo, tim)
	const n = 4000
	remaining := n
	var last sim.Tick
	for i := 0; i < n; i++ {
		addr := uint64(i * accessBytes)
		submitLine(c, addr, false, func(done sim.Tick) {
			remaining--
			if done > last {
				last = done
			}
		})
	}
	eng.Run()
	if remaining != 0 {
		t.Fatalf("%d requests never completed", remaining)
	}
	bytes := float64(n * accessBytes)
	gbps := bytes / float64(last)
	peak := c.PeakBandwidthGBs()
	if gbps < 0.65*peak {
		t.Fatalf("streaming bandwidth %.1f GB/s < 65%% of peak %.1f GB/s", gbps, peak)
	}
	if gbps > peak*1.01 {
		t.Fatalf("streaming bandwidth %.1f GB/s exceeds peak %.1f GB/s", gbps, peak)
	}
}

func TestRandomSlowerThanStreaming(t *testing.T) {
	tim := DDR5_4800()
	geo := Table2Geometry()
	run := func(random bool) float64 {
		eng, c := testController(geo, tim)
		rng := sim.NewRNG(42)
		const n = 2000
		var last sim.Tick
		for i := 0; i < n; i++ {
			var addr uint64
			if random {
				addr = (rng.Uint64() % uint64(geo.Capacity())) &^ (accessBytes - 1)
			} else {
				addr = uint64(i * accessBytes)
			}
			submitLine(c, addr, false, func(done sim.Tick) {
				if done > last {
					last = done
				}
			})
		}
		eng.Run()
		return float64(n*accessBytes) / float64(last)
	}
	stream := run(false)
	rand := run(true)
	if rand >= stream {
		t.Fatalf("random bandwidth %.1f >= streaming %.1f", rand, stream)
	}
}

func TestWriteCompletes(t *testing.T) {
	eng, c := testController(Table2Geometry(), DDR5_4800())
	var done sim.Tick
	submitLine(c, 0, true, func(at sim.Tick) { done = at })
	eng.Run()
	if done == 0 {
		t.Fatal("write never completed")
	}
	if st := c.Stats(); st.Writes != 1 || st.Reads != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Tick, Stats) {
		eng, c := testController(Table2Geometry(), DDR5_4800())
		rng := sim.NewRNG(7)
		for i := 0; i < 500; i++ {
			addr := (rng.Uint64() % uint64(c.Geometry().Capacity())) &^ (accessBytes - 1)
			submitLine(c, addr, i%5 == 0, func(sim.Tick) {})
		}
		end := eng.Run()
		return end, c.Stats()
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Fatalf("runs diverged: %d/%+v vs %d/%+v", e1, s1, e2, s2)
	}
}

func TestMoreChannelsMoreBandwidth(t *testing.T) {
	tim := DDR5_4800()
	run := func(channels int) float64 {
		geo := Table2Geometry()
		geo.Channels = channels
		eng, c := testController(geo, tim)
		const n = 2000
		var last sim.Tick
		for i := 0; i < n; i++ {
			submitLine(c, uint64(i*accessBytes), false, func(done sim.Tick) {
				if done > last {
					last = done
				}
			})
		}
		eng.Run()
		return float64(n*accessBytes) / float64(last)
	}
	one := run(1)
	four := run(4)
	if four < 3*one {
		t.Fatalf("4-channel bandwidth %.1f GB/s not ~4x 1-channel %.1f GB/s", four, one)
	}
}

func TestRefreshCostsBandwidth(t *testing.T) {
	tim := DDR5_4800()
	noRef := tim
	noRef.REFI = 0
	geo := Table2Geometry()
	geo.Channels = 1
	run := func(tm Timing) sim.Tick {
		eng, c := testController(geo, tm)
		// Enough traffic to span several tREFI windows.
		const n = 20000
		var last sim.Tick
		for i := 0; i < n; i++ {
			submitLine(c, uint64(i*accessBytes), false, func(done sim.Tick) {
				if done > last {
					last = done
				}
			})
		}
		eng.Run()
		return last
	}
	withRef := run(tim)
	without := run(noRef)
	if withRef <= without {
		t.Fatalf("refresh did not slow the run: with=%d without=%d", withRef, without)
	}
	// The penalty should be in the neighbourhood of tRFC/tREFI (~7.5%), and
	// certainly under 25%.
	ratio := float64(withRef) / float64(without)
	if ratio > 1.25 {
		t.Fatalf("refresh overhead ratio %.3f implausibly high", ratio)
	}
}

func TestSubmitWithoutDonePanics(t *testing.T) {
	_, c := testController(Table2Geometry(), DDR5_4800())
	defer func() {
		if recover() == nil {
			t.Error("SubmitRange without a completion func did not panic")
		}
	}()
	c.SubmitRange(0, accessBytes, false, 0, nil, 0)
}

func TestQueueDelayAccumulates(t *testing.T) {
	geo := Table2Geometry()
	geo.Channels = 1
	eng, c := testController(geo, DDR5_4800())
	// Hammer one bank with row misses so later requests queue.
	l := geo.Map(0)
	for i := 0; i < 50; i++ {
		l.Row = i
		submitLine(c, geo.Unmap(l), false, func(sim.Tick) {})
	}
	eng.Run()
	st := c.Stats()
	if st.QueueDelay <= 0 {
		t.Fatalf("QueueDelay = %d, want > 0 under contention", st.QueueDelay)
	}
	if want := float64(st.QueueDelay) / float64(st.Reads+st.Writes); st.MeanQueueDelayNS() != want {
		t.Fatalf("MeanQueueDelayNS = %v, want %v", st.MeanQueueDelayNS(), want)
	}
	if (Stats{}).MeanQueueDelayNS() != 0 {
		t.Fatal("MeanQueueDelayNS on empty stats should be 0")
	}
}

func TestFairnessNoStarvation(t *testing.T) {
	// A stream of row hits to bank A must not starve a single request to
	// bank B: FR-FCFS only reorders within a bounded window.
	geo := Table2Geometry()
	geo.Channels = 1
	eng, c := testController(geo, DDR5_4800())

	var bDone sim.Tick
	hitBase := geo.Map(0)
	other := hitBase
	other.Group = 1
	other.Row = 3

	// Enqueue 200 row hits and one bank-B request near the front.
	for i := 0; i < 10; i++ {
		l := hitBase
		l.Col = i
		submitLine(c, geo.Unmap(l), false, func(sim.Tick) {})
	}
	submitLine(c, geo.Unmap(other), false, func(at sim.Tick) { bDone = at })
	var lastHit sim.Tick
	for i := 10; i < 200; i++ {
		l := hitBase
		l.Col = i % (geo.RowBytes / accessBytes)
		submitLine(c, geo.Unmap(l), false, func(at sim.Tick) { lastHit = at })
	}
	eng.Run()
	if bDone == 0 {
		t.Fatal("bank-B request never completed")
	}
	if bDone >= lastHit {
		t.Fatalf("bank-B request starved: done at %d, after all %d hits (last %d)", bDone, 200, lastHit)
	}
}
