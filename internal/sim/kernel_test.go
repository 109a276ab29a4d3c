package sim

// Regression tests for the calendar-queue kernel: FIFO ordering across the
// ring/heap boundary, cancellation in every structure, slot recycling, and a
// randomized cross-check against a straightforward container/heap reference
// scheduler (the organization the kernel replaced), under dense traffic and
// under sparse traffic that leaves most buckets and bitmap words empty.

import (
	"container/heap"
	"math"
	"testing"
)

// TestEngineFIFOAcrossRingHeapBoundary schedules events for one far-future
// tick from several moments in time: the early schedulings land in the
// min-heap, the late ones (once the tick is within the ring horizon) in a
// calendar bucket. They must still fire in scheduling (seq) order.
func TestEngineFIFOAcrossRingHeapBoundary(t *testing.T) {
	e := NewEngine()
	const target = ringHorizon + 1000 // beyond the horizon at t=0
	var order []int
	e.At(target, func() { order = append(order, 0) }) // heap resident
	e.At(2000, func() {
		// target-now = ringHorizon-1000: these two land in the ring bucket.
		e.At(target, func() { order = append(order, 1) })
		e.At(target, func() { order = append(order, 2) })
	})
	e.At(2500, func() {
		e.At(target, func() { order = append(order, 3) })
	})
	end := e.Run()
	if end != target {
		t.Fatalf("end = %d, want %d", end, target)
	}
	if len(order) != 4 {
		t.Fatalf("fired %d events at target tick, want 4", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-tick events fired out of scheduling order: %v", order)
		}
	}
}

// TestEngineCancelAcrossBoundary cancels events resident in a bucket's
// middle, a bucket's head and tail, and the far-future heap.
func TestEngineCancelAcrossBoundary(t *testing.T) {
	e := NewEngine()
	var got []int
	mk := func(i int) func() { return func() { got = append(got, i) } }

	// Five events in one bucket; cancel head, middle, tail.
	evs := make([]Event, 5)
	for i := range evs {
		evs[i] = e.At(100, mk(i))
	}
	// Two far events in the heap.
	far := e.At(ringHorizon+500, mk(10))
	e.At(ringHorizon+500, mk(11))

	e.Cancel(evs[0])
	e.Cancel(evs[2])
	e.Cancel(evs[4])
	e.Cancel(far)

	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	for _, i := range []int{0, 2, 4} {
		if !evs[i].Cancelled() {
			t.Errorf("event %d not reported cancelled", i)
		}
	}
	if !far.Cancelled() {
		t.Error("heap event not reported cancelled")
	}
	e.Run()
	want := []int{1, 3, 11}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if evs[1].Cancelled() {
		t.Error("fired event reported cancelled")
	}
}

// TestEngineSlotRecycling checks that stale handles stay inert after their
// arena slot is reused.
func TestEngineSlotRecycling(t *testing.T) {
	e := NewEngine()
	ev := e.At(10, func() {})
	e.Cancel(ev)
	if !ev.Cancelled() {
		t.Fatal("not cancelled")
	}
	// The cancelled slot is recycled by the next At; the stale handle must
	// neither report cancelled nor be able to cancel the new event.
	fired := false
	e.At(20, func() { fired = true })
	if ev.Cancelled() {
		t.Error("stale handle reports cancelled after slot reuse")
	}
	e.Cancel(ev) // must not disturb the new occupant
	e.Run()
	if !fired {
		t.Error("stale Cancel removed an unrelated event")
	}
}

// TestEngineSteadyStateZeroAlloc verifies the pooled arena: after warm-up,
// a schedule+fire cycle allocates nothing — the kernel's core guarantee.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ { // warm the arena, free list, and heap
		e.After(3, fn)
		e.After(ringHorizon+50, fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(200, func() {
		e.After(3, fn)
		e.After(ringHorizon+50, fn)
		e.Step()
		e.Step()
	})
	if avg != 0 {
		t.Errorf("steady-state schedule+fire allocates %.1f objects/op, want 0", avg)
	}
}

// --- randomized cross-check against a container/heap reference kernel ---

// refEvent mirrors the pre-calendar kernel's event.
type refEvent struct {
	at   Tick
	seq  uint64
	fn   func()
	heap int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heap = i
	h[j].heap = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.heap = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.heap = -1
	*h = old[:n-1]
	return e
}

type refKernel struct {
	now   Tick
	seq   uint64
	queue refHeap
}

func (k *refKernel) after(d Tick, fn func()) func() {
	ev := &refEvent{at: k.now + d, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.queue, ev)
	return func() {
		if ev.heap >= 0 {
			heap.Remove(&k.queue, ev.heap)
			ev.heap = -2
		}
	}
}

func (k *refKernel) run() {
	k.runUntil(MaxTick)
}

// runUntil mirrors Engine.RunUntil: fire everything due by deadline, then
// advance the clock to it.
func (k *refKernel) runUntil(deadline Tick) int {
	n := 0
	for len(k.queue) > 0 && k.queue[0].at <= deadline {
		ev := heap.Pop(&k.queue).(*refEvent)
		k.now = ev.at
		ev.fn()
		n++
	}
	if k.now < deadline {
		k.now = deadline
	}
	return n
}

func (k *refKernel) nextTime() (Tick, bool) {
	if len(k.queue) == 0 {
		return 0, false
	}
	return k.queue[0].at, true
}

// scheduler abstracts the two kernels for the mirrored driver.
type scheduler interface {
	after(d Tick, fn func()) (cancel func())
	nowTick() Tick
	nextTime() (Tick, bool)
	runUntil(deadline Tick) int
	drain()
}

type simSched struct{ e *Engine }

func (s simSched) after(d Tick, fn func()) func() {
	ev := s.e.After(d, fn)
	return func() { s.e.Cancel(ev) }
}
func (s simSched) nowTick() Tick              { return s.e.Now() }
func (s simSched) nextTime() (Tick, bool)     { return s.e.NextTime() }
func (s simSched) runUntil(deadline Tick) int { return s.e.RunUntil(deadline) }
func (s simSched) drain()                     { s.e.Run() }

type refSched struct{ k *refKernel }

func (s refSched) after(d Tick, fn func()) func() { return s.k.after(d, fn) }
func (s refSched) nowTick() Tick                  { return s.k.now }
func (s refSched) nextTime() (Tick, bool)         { return s.k.nextTime() }
func (s refSched) runUntil(deadline Tick) int     { return s.k.runUntil(deadline) }
func (s refSched) drain()                         { s.k.run() }

// exercise drives a kernel with a deterministic pseudo-random workload that
// schedules across the ring/heap boundary and cancels in flight, recording
// the (id, time) sequence of fired events.
func exercise(s scheduler, seed uint64) []int64 {
	rng := NewRNG(seed)
	var log []int64
	var cancels []func()
	nextID := 0
	budget := 4000
	var fire func(id int) func()
	fire = func(id int) func() {
		return func() {
			log = append(log, int64(id)<<32|int64(s.nowTick()&0xffffffff))
			if budget <= 0 {
				return
			}
			for k := uint64(0); k < rng.Uint64()%3; k++ {
				budget--
				// Mix near (ring) and far (heap) delays, with duplicates.
				d := Tick(rng.Uint64() % 64)
				if rng.Uint64()%5 == 0 {
					d += ringHorizon + Tick(rng.Uint64()%1000)
				}
				id := nextID
				nextID++
				cancels = append(cancels, s.after(d, fire(id)))
			}
			if len(cancels) > 0 && rng.Uint64()%4 == 0 {
				victim := int(rng.Uint64() % uint64(len(cancels)))
				cancels[victim]()
			}
		}
	}
	for i := 0; i < 16; i++ {
		id := nextID
		nextID++
		cancels = append(cancels, s.after(Tick(rng.Uint64()%100), fire(id)))
	}
	s.drain()
	return log
}

// sparseEdges are delays at the bitmap's word edges and the ring's end:
// from an unaligned now they put the next event in now's own word, the
// next word, or only in the wrap-around word (4095), or in the heap.
var sparseEdges = []Tick{0, 1, 63, 64, 65, 127, 128, 4032, ringHorizon - 65,
	ringHorizon - 64, ringHorizon - 63, ringHorizon - 1, ringHorizon, ringHorizon + 1}

// exerciseSparse drives a kernel with sparse traffic: a few events at a
// time, with delays anywhere in [0, ringHorizon+1000) and often at
// sparseEdges, so the next event usually lies many empty buckets (and
// bitmap words) ahead. After each scheduling burst it cancels the newest
// event (usually alone in its bucket, so the cancel empties the bucket), a
// random one or none, probes NextTime, and advances the clock with RunUntil
// to a random deadline. The log holds each fired event's id and time, each
// NextTime answer and each RunUntil count.
func exerciseSparse(s scheduler, seed uint64) []int64 {
	rng := NewRNG(seed)
	delay := func() Tick {
		if rng.Uint64()%3 == 0 {
			return sparseEdges[rng.Uint64()%uint64(len(sparseEdges))]
		}
		return Tick(rng.Uint64() % uint64(ringHorizon+1000))
	}
	var log []int64
	var cancels []func()
	nextID := 0
	budget := 1500
	var fire func(id int) func()
	fire = func(id int) func() {
		return func() {
			log = append(log, int64(id)<<32|int64(s.nowTick()&0xffffffff))
			if budget > 0 && rng.Uint64()%2 == 0 {
				budget--
				cancels = append(cancels, s.after(delay(), fire(nextID)))
				nextID++
			}
		}
	}
	for round := 0; round < 400; round++ {
		for k := uint64(0); k <= rng.Uint64()%3; k++ {
			cancels = append(cancels, s.after(delay(), fire(nextID)))
			nextID++
		}
		switch rng.Uint64() % 3 {
		case 0: // the newest event: usually alone in its bucket
			cancels[len(cancels)-1]()
		case 1:
			cancels[rng.Uint64()%uint64(len(cancels))]()
		}
		if nt, ok := s.nextTime(); ok {
			log = append(log, -1-nt)
		} else {
			log = append(log, math.MinInt64)
		}
		n := s.runUntil(s.nowTick() + delay())
		log = append(log, math.MinInt64+1+int64(n))
	}
	s.drain()
	return log
}

func TestEngineMatchesHeapReference(t *testing.T) {
	drivers := []struct {
		name string
		run  func(scheduler, uint64) []int64
	}{
		{"dense", exercise},
		{"sparse", exerciseSparse},
	}
	for _, d := range drivers {
		for seed := uint64(1); seed <= 8; seed++ {
			got := d.run(simSched{NewEngine()}, seed)
			want := d.run(refSched{&refKernel{}}, seed)
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: logged %d entries, reference logged %d", d.name, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: divergence at log entry %d: got %x, want %x",
						d.name, seed, i, got[i], want[i])
				}
			}
		}
	}
}
