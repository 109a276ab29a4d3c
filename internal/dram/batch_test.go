package dram

import (
	"math/rand"
	"testing"

	"pifsrec/internal/sim"
)

// TestBatchMatchesSingleSubmits cross-checks the batched path against
// per-line submits: the same line sequence must issue identically, so each
// group's batched completion time must equal the max of its lines' single-
// submit completion times, and the controllers must accumulate identical
// stats.
func TestBatchMatchesSingleSubmits(t *testing.T) {
	geo := Table2Geometry()
	tim := DDR5_4800()
	rng := sim.NewRNG(9)
	const groups = 64
	const vecBytes = 512 // 8 lines per group
	bases := make([]uint64, groups)
	for i := range bases {
		bases[i] = (rng.Uint64() % uint64(geo.Capacity()-vecBytes)) &^ 63
	}

	// Reference: every line individually, folding per-group maxima by hand.
	engA := sim.NewEngine()
	cA := NewController(engA, geo, tim)
	wantDone := make([]sim.Tick, groups)
	for g, base := range bases {
		g := g
		for l := 0; l < vecBytes/64; l++ {
			submitLine(cA, base+uint64(l*64), false, func(at sim.Tick) {
				if at > wantDone[g] {
					wantDone[g] = at
				}
			})
		}
	}
	endA := engA.Run()

	// Batched: one SubmitRange per group, one completion each.
	engB := sim.NewEngine()
	cB := NewController(engB, geo, tim)
	gotDone := make([]sim.Tick, groups)
	for g, base := range bases {
		g := g
		cB.SubmitRange(base, vecBytes, false, 0, func(_ int32, at sim.Tick) { gotDone[g] = at }, 0)
	}
	endB := engB.Run()

	if endA != endB {
		t.Fatalf("drain times diverged: single=%d batched=%d", endA, endB)
	}
	for g := range bases {
		if gotDone[g] != wantDone[g] {
			t.Fatalf("group %d: batched done at %d, per-line max %d", g, gotDone[g], wantDone[g])
		}
	}
	if sa, sb := cA.Stats(), cB.Stats(); sa != sb {
		t.Fatalf("stats diverged:\nsingle  %+v\nbatched %+v", sa, sb)
	}
}

// TestSubmitBatchScatteredMatchesRanges checks the multi-base entry point:
// one SubmitBatch over scattered rows completes exactly when the slowest of
// the equivalent per-row SubmitRange calls would.
func TestSubmitBatchScatteredMatchesRanges(t *testing.T) {
	geo := Table2Geometry()
	tim := DDR4_3200()
	rng := sim.NewRNG(10)
	const rows = 32
	const vecBytes = 256
	addrs := make([]uint64, rows)
	for i := range addrs {
		addrs[i] = (rng.Uint64() % uint64(geo.Capacity()-vecBytes)) &^ 63
	}

	engA := sim.NewEngine()
	cA := NewController(engA, geo, tim)
	var want sim.Tick
	for _, a := range addrs {
		cA.SubmitRange(a, vecBytes, false, 0, func(_ int32, at sim.Tick) {
			if at > want {
				want = at
			}
		}, 0)
	}
	engA.Run()

	engB := sim.NewEngine()
	cB := NewController(engB, geo, tim)
	var got sim.Tick
	cB.SubmitBatch(addrs, vecBytes, false, 0, func(_ int32, at sim.Tick) { got = at }, 0)
	engB.Run()

	if got != want {
		t.Fatalf("scattered batch done at %d, per-range max %d", got, want)
	}
}

// TestBatchExtraLatency checks the extra completion latency is added on top
// of the last data beat, not per line.
func TestBatchExtraLatency(t *testing.T) {
	geo := Table2Geometry()
	tim := DDR5_4800()
	run := func(extra sim.Tick) sim.Tick {
		eng := sim.NewEngine()
		c := NewController(eng, geo, tim)
		var done sim.Tick
		c.SubmitRange(0, 512, false, extra, func(_ int32, at sim.Tick) { done = at }, 0)
		eng.Run()
		return done
	}
	base := run(0)
	if got := run(75); got != base+75 {
		t.Fatalf("extra=75: done at %d, want %d", got, base+75)
	}
}

// TestArenaReuseNoLeak drives many waves of batched traffic through one
// controller and checks that the queue rings and batch slots recycle instead
// of growing: the first wave sets the rings' capacity, and nothing stays
// queued or in flight after a drain. A ring doubles only when full, so each
// holds fewer than twice the runs one wave queues on it, or its 16-run
// minimum.
func TestArenaReuseNoLeak(t *testing.T) {
	geo := Table2Geometry()
	eng := sim.NewEngine()
	c := NewController(eng, geo, DDR5_4800())
	const rows = 16
	const vecBytes = 512
	addrs := make([]uint64, rows)
	done := func(int32, sim.Tick) {}
	ringCap := 0
	for wave := 0; wave < 50; wave++ {
		for i := range addrs {
			addrs[i] = uint64((wave*rows+i)*vecBytes) % (uint64(geo.Capacity()) &^ 63)
		}
		c.SubmitBatch(addrs, vecBytes, false, 0, done, 0)
		c.SubmitRange(addrs[0], vecBytes, true, 10, done, 1)
		eng.Run()
		if got := c.InFlightBatches(); got != 0 {
			t.Fatalf("wave %d: %d batches still in flight after drain", wave, got)
		}
		lines, capacity := queueState(c)
		if lines != 0 {
			t.Fatalf("wave %d: %d lines still queued after drain", wave, lines)
		}
		if wave == 0 {
			ringCap = capacity
		} else if capacity != ringCap {
			t.Fatalf("wave %d: queue rings grew from %d to %d runs", wave, ringCap, capacity)
		}
	}
	if maxLines := (rows + 1) * vecBytes / 64; ringCap > 2*maxLines+16*geo.Channels {
		t.Fatalf("queue rings hold %d runs; one wave is only %d lines on %d channels", ringCap, maxLines, geo.Channels)
	}
	// All 50 waves' worth of lines went through those few slots.
	wantReqs := int64(50 * (rows + 1) * vecBytes / 64)
	if st := c.Stats(); st.Reads+st.Writes != wantReqs {
		t.Fatalf("issued %d requests, want %d", st.Reads+st.Writes, wantReqs)
	}
}

// queueState returns the lines waiting in c's channel queues and the runs
// its rings can hold.
func queueState(c *Controller) (lines, capacity int) {
	for _, ch := range c.chans {
		for i := 0; i < ch.q.n; i++ {
			lines += int(ch.q.at(i).n)
		}
		capacity += len(ch.q.reqs)
	}
	return lines, capacity
}

// TestReqRingMatchesReference drives the circular queue through random
// push/remove sequences against a plain-slice reference implementation.
func TestReqRingMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var q reqRing
	var ref []int32
	next := int32(0)
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || r.Intn(3) != 0 {
			q.push(request{batch: next})
			ref = append(ref, next)
			next++
		} else {
			// Remove within the FR-FCFS window, like service() does.
			limit := len(ref)
			if limit > frWindow {
				limit = frWindow
			}
			i := r.Intn(limit)
			if got := q.at(i).batch; got != ref[i] {
				t.Fatalf("step %d: at(%d) = %d, want %d", step, i, got, ref[i])
			}
			q.removeAt(i)
			ref = append(ref[:i], ref[i+1:]...)
		}
		if q.n != len(ref) {
			t.Fatalf("step %d: length %d, want %d", step, q.n, len(ref))
		}
	}
	for i := range ref {
		if q.at(i).batch != ref[i] {
			t.Fatalf("final order diverged at %d", i)
		}
	}
}

// TestSubmitBatchValidation covers the argument contract.
func TestSubmitBatchValidation(t *testing.T) {
	eng := sim.NewEngine()
	c := NewController(eng, Table2Geometry(), DDR5_4800())
	done := func(int32, sim.Tick) {}
	cases := map[string]func(){
		"nil done":     func() { c.SubmitRange(0, 64, false, 0, nil, 0) },
		"bad size":     func() { c.SubmitRange(0, 65, false, 0, done, 0) },
		"zero size":    func() { c.SubmitRange(0, 0, false, 0, done, 0) },
		"neg extra":    func() { c.SubmitRange(0, 64, false, -1, done, 0) },
		"no addresses": func() { c.SubmitBatch(nil, 64, false, 0, done, 0) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
