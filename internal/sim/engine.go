// Package sim provides the discrete-event simulation kernel used by every
// hardware model in this repository: an event queue ordered by nanosecond
// timestamps, a deterministic pseudo-random number generator, and small
// statistics helpers.
//
// The paper's evaluation wraps Ramulator 2.0 under a top module with a
// one-nanosecond clock tick (§VI-A). We adopt the same convention: all
// timestamps are int64 nanoseconds ("ticks") since simulation start, and
// component models convert their internal clock domains (e.g. DRAM tCK in
// picoseconds) into ticks when they schedule events.
//
// # Kernel organization
//
// The queue is a hybrid calendar/bucket queue: a ring of per-tick buckets
// covers the near future (now .. now+ringHorizon), and a binary min-heap
// keyed by (time, seq) holds far-future events. An occupancy bitmap beside
// the ring has one bit per bucket, set while the bucket holds an event, so
// finding the next event skips empty ticks 64 at a time: at most 65 words
// from now's bucket, wrapping around the ring, whatever the gap to the next
// event. Only buckets whose bit is set are ever read. Events live in a pooled
// arena of value-typed nodes with free-list recycling, so steady-state
// scheduling performs no heap allocation: At/After, firing, and Cancel all
// reuse arena slots. Events with equal timestamps fire in the order they
// were scheduled (FIFO within a tick) regardless of which structure holds
// them, which keeps runs deterministic.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Tick is a simulation timestamp in nanoseconds.
type Tick = int64

// MaxTick is the largest representable simulation time.
const MaxTick Tick = math.MaxInt64

// MaxInputNS is the latest time, or longest delay, an input may name: the
// end of a fault window (at_ns + duration_ns), a device-slow fault's added
// latency, a fault plan's retry timeout and longest backoff, and every
// open-loop arrival. 2^60 ns is about 36 years of simulated time, and it
// leaves room below MaxTick for what the engine adds on top (a barrier
// window, component latencies) without overflowing a Tick.
const MaxInputNS = 1 << 60

// ringHorizon is the span of the near-future bucket ring in ticks. Delays
// shorter than this (DRAM service, link crossings, migration stalls) enjoy
// O(1) scheduling; longer ones fall back to the min-heap. Must be a power
// of two.
const ringHorizon Tick = 4096

const ringMask = ringHorizon - 1

// ringWords is the length of the occupancy bitmap in 64-bit words.
const ringWords = int(ringHorizon / 64)

// node states.
const (
	stateFired     uint8 = iota // fired; slot on the free list
	stateCancelled              // removed before firing; slot on the free list
	stateRing                   // linked into a near-future bucket
	stateHeap                   // resident in the far-future heap
)

// node is one arena slot. Nodes are referenced by index, never by pointer,
// so the arena can grow (and the engine can recycle slots) freely.
//
// A node carries either a plain callback (fn) or a token callback (fnc+arg).
// Token callbacks exist so hot paths can schedule work without allocating a
// fresh closure per event: the callee stores one func value up front and
// passes a pooled-record index as the argument.
type node struct {
	at   Tick
	seq  uint64
	fn   func()
	fnc  func(int32)
	arg  int32
	prev int32 // bucket list links (stateRing)
	next int32
	pos  int32  // heap index (stateHeap)
	gen  uint32 // bumped on slot reuse; stale Event handles mismatch
	sta  uint8
}

// heapEntry mirrors a node in the far-future heap; ordering is (at, seq).
type heapEntry struct {
	at  Tick
	seq uint64
	id  int32
}

// Event is a handle to a scheduled callback, valid for Cancel until the
// event fires. The zero Event is inert: cancelling it is a no-op.
type Event struct {
	eng *Engine
	id  int32
	gen uint32
}

// Cancelled reports whether the event was removed before firing. The answer
// is precise until the engine recycles the underlying slot for a later
// At/After, after which it reports false.
func (ev Event) Cancelled() bool {
	if ev.eng == nil {
		return false
	}
	n := &ev.eng.arena[ev.id]
	return n.gen == ev.gen && n.sta == stateCancelled
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; construct with NewEngine.
type Engine struct {
	now     Tick
	nextSeq uint64
	fired   uint64
	limit   uint64 // safety valve against runaway simulations; 0 = unlimited

	arena []node
	free  []int32

	// Near-future calendar ring: heads/tails index bucket lists in the
	// arena; every resident event has now <= at < now+ringHorizon, so each
	// bucket holds at most one tick's events, appended in seq order. Bit s
	// of occ is set while bucket s is nonempty; heads[s] and tails[s] are
	// meaningful only then.
	heads     [ringHorizon]int32
	tails     [ringHorizon]int32
	occ       [ringWords]uint64
	ringCount int

	heap []heapEntry

	// Envelope delivery arena: AtMsg stages a mailbox envelope directly in
	// the engine (the destination shard's calendar owns the storage) and the
	// event hands it to its handler. Slots recycle through a free list.
	envs     []envSlot
	envFree  []int32
	envInUse int
	fnEnv    func(int32)
}

// envSlot is one pooled envelope awaiting delivery on this engine. addrs
// keeps its capacity across recycles, so steady-state traffic stops growing
// the arena.
type envSlot struct {
	env   Envelope
	addrs []uint64
	h     MsgHandler
}

// NewEngine returns an empty engine positioned at tick zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.fnEnv = e.fireEnv
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Tick { return e.now }

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.ringCount + len(e.heap) }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// SetEventLimit installs a safety limit on the total number of events the
// engine will fire; Run panics past the limit. Zero disables the limit.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// alloc returns a recycled (or freshly grown) arena slot.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		e.arena[id].gen++
		return id
	}
	e.arena = append(e.arena, node{})
	return int32(len(e.arena) - 1)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a modelling bug, and silently clamping would hide it.
func (e *Engine) At(t Tick, fn func()) Event {
	return e.schedule(t, fn, nil, 0)
}

// AtCall schedules fn(arg) at absolute time t. Unlike At, it captures
// nothing: callers keep one fn value alive (typically a struct field set at
// construction) and thread per-event state through arg, usually an index
// into a pooled record table — the zero-allocation scheduling primitive the
// link, batch, and mailbox paths are built on.
func (e *Engine) AtCall(t Tick, fn func(int32), arg int32) Event {
	return e.schedule(t, nil, fn, arg)
}

// AtMsg schedules delivery of a mailbox envelope at env.At: the envelope
// (and a copy of addrs) is staged in the engine's pooled envelope arena and
// handed to h.HandleMsg when the event fires — the barrier writes
// cross-shard messages straight into the destination's calendar with no
// intermediate inbox. The envelope's Addrs passed to the handler alias the
// pooled buffer; handlers copy what they keep.
func (e *Engine) AtMsg(h MsgHandler, env Envelope, addrs []uint64) Event {
	var slot int32
	if n := len(e.envFree); n > 0 {
		slot = e.envFree[n-1]
		e.envFree = e.envFree[:n-1]
	} else {
		e.envs = append(e.envs, envSlot{})
		slot = int32(len(e.envs) - 1)
	}
	s := &e.envs[slot]
	s.env = env
	s.addrs = append(s.addrs[:0], addrs...)
	s.h = h
	e.envInUse++
	return e.schedule(env.At, nil, e.fnEnv, slot)
}

// fireEnv delivers one staged envelope and recycles its slot.
func (e *Engine) fireEnv(slot int32) {
	s := &e.envs[slot]
	env := s.env
	env.Addrs = s.addrs
	h := s.h
	h.HandleMsg(env)
	// Re-acquire: the handler may have grown the arena via further AtMsg.
	s = &e.envs[slot]
	s.addrs = s.addrs[:0]
	s.h = nil
	e.envFree = append(e.envFree, slot)
	e.envInUse--
}

// ReserveEnvelopes grows the envelope arena so that n further AtMsg calls
// recycle or use pre-grown slots — the barrier reserves its whole window's
// worth of deliveries up front instead of growing mid-injection.
func (e *Engine) ReserveEnvelopes(n int) {
	for need := e.envInUse + n - len(e.envs); need > 0; need-- {
		e.envs = append(e.envs, envSlot{})
		e.envFree = append(e.envFree, int32(len(e.envs)-1))
	}
}

// PendingEnvelopes reports staged-but-undelivered envelopes (leak tests).
func (e *Engine) PendingEnvelopes() int { return e.envInUse }

// EnvelopeCapacity returns the envelope slots ever allocated — steady-state
// traffic must stop growing it (reuse tests).
func (e *Engine) EnvelopeCapacity() int { return len(e.envs) }

func (e *Engine) schedule(t Tick, fn func(), fnc func(int32), arg int32) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at t=%d before now=%d", t, e.now))
	}
	id := e.alloc()
	n := &e.arena[id]
	n.at = t
	n.seq = e.nextSeq
	n.fn = fn
	n.fnc = fnc
	n.arg = arg
	e.nextSeq++
	if t-e.now < ringHorizon {
		slot := int(t & ringMask)
		n.sta = stateRing
		n.next = -1
		if w, b := slot>>6, uint64(1)<<(slot&63); e.occ[w]&b != 0 {
			n.prev = e.tails[slot]
			e.arena[n.prev].next = id
		} else {
			e.occ[w] |= b
			n.prev = -1
			e.heads[slot] = id
		}
		e.tails[slot] = id
		e.ringCount++
	} else {
		n.sta = stateHeap
		e.heapPush(heapEntry{at: t, seq: n.seq, id: id})
	}
	return Event{eng: e, id: id, gen: n.gen}
}

// After schedules fn to run d ticks from now.
func (e *Engine) After(d Tick, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired,
// already-cancelled, or zero event is a no-op.
func (e *Engine) Cancel(ev Event) {
	if ev.eng != e || ev.eng == nil {
		return
	}
	n := &e.arena[ev.id]
	if n.gen != ev.gen {
		return
	}
	switch n.sta {
	case stateRing:
		e.unlink(ev.id, n)
	case stateHeap:
		e.heapRemove(n.pos)
	default:
		return
	}
	n.fn = nil
	n.fnc = nil
	n.sta = stateCancelled
	e.free = append(e.free, ev.id)
}

// unlink removes a ring-resident node from its bucket list, clearing the
// bucket's occupancy bit when it was the last node.
func (e *Engine) unlink(id int32, n *node) {
	slot := int(n.at & ringMask)
	if n.prev >= 0 {
		e.arena[n.prev].next = n.next
	} else {
		e.heads[slot] = n.next
	}
	if n.next >= 0 {
		e.arena[n.next].prev = n.prev
	} else {
		e.tails[slot] = n.prev
	}
	if n.prev < 0 && n.next < 0 {
		e.occ[slot>>6] &^= uint64(1) << (slot & 63)
	}
	e.ringCount--
}

// ringOffset returns the distance in ticks from now to the first nonempty
// bucket; the ring must hold at least one event. Every ring event lies in
// [now, now+ringHorizon), so the first set bit at or after now's bucket,
// wrapping around the ring, marks the earliest ring tick: the search reads
// now's word from now's bit up, the 63 words after it, and finally now's
// word again for the bits below now's.
func (e *Engine) ringOffset() Tick {
	s := int(e.now & ringMask)
	w, b := s>>6, s&63
	if x := e.occ[w] >> b; x != 0 {
		return Tick(bits.TrailingZeros64(x))
	}
	for i := 1; i <= ringWords; i++ {
		if x := e.occ[(w+i)&(ringWords-1)]; x != 0 {
			return Tick(i*64 - b + bits.TrailingZeros64(x))
		}
	}
	panic("sim: occupancy bitmap empty with events in the ring")
}

// findNext locates the earliest scheduled event by (time, seq) without
// removing it: the earlier of the first nonempty bucket's head and the
// heap's head, the lower seq on a tie.
func (e *Engine) findNext() (int32, bool) {
	hTime := MaxTick
	if len(e.heap) > 0 {
		hTime = e.heap[0].at
	}
	if e.ringCount > 0 {
		if t := e.now + e.ringOffset(); t <= hTime {
			h := e.heads[t&ringMask]
			if t == hTime && e.heap[0].seq < e.arena[h].seq {
				return e.heap[0].id, true
			}
			return h, true
		}
	}
	if len(e.heap) > 0 {
		return e.heap[0].id, true
	}
	return -1, false
}

// fire removes node id from its structure, advances the clock, and runs the
// callback.
func (e *Engine) fire(id int32) {
	n := &e.arena[id]
	if n.at < e.now {
		panic("sim: event queue went backwards")
	}
	if n.sta == stateRing {
		e.unlink(id, n)
	} else {
		e.heapRemove(n.pos)
	}
	e.now = n.at
	e.fired++
	if e.limit != 0 && e.fired > e.limit {
		panic(&EventLimitError{Limit: e.limit, At: e.now})
	}
	fn, fnc, arg := n.fn, n.fnc, n.arg
	n.fn = nil
	n.fnc = nil
	n.sta = stateFired
	e.free = append(e.free, id)
	if fnc != nil {
		fnc(arg)
		return
	}
	fn()
}

// ScheduleCount returns the number of schedule operations ever performed.
// The sharded coordinator uses it to cache NextTime across windows: a
// group's earliest pending event can only move EARLIER through a new
// schedule (firing and cancelling only remove events), so an unchanged
// count plus an un-run window means the cached time is still a safe bound.
func (e *Engine) ScheduleCount() uint64 { return e.nextSeq }

// NextTime returns the timestamp of the earliest pending event. ok is false
// when the queue is empty. The sharded engine uses it to pick each
// conservative window's start without disturbing the queue.
func (e *Engine) NextTime() (Tick, bool) {
	id, ok := e.findNext()
	if !ok {
		return 0, false
	}
	return e.arena[id].at, true
}

// Step fires the single earliest event. It reports false when the queue is
// empty.
func (e *Engine) Step() bool {
	id, ok := e.findNext()
	if !ok {
		return false
	}
	e.fire(id)
	return true
}

// Run fires events until the queue drains and returns the final time.
func (e *Engine) Run() Tick {
	for e.Step() {
	}
	return e.now
}

// RunUntil fires events with timestamps <= deadline, advances the clock to
// deadline, and returns the number of events fired.
func (e *Engine) RunUntil(deadline Tick) int {
	n := 0
	for {
		id, ok := e.findNext()
		if !ok || e.arena[id].at > deadline {
			break
		}
		e.fire(id)
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

// heapLess orders far-future entries by (time, seq).
func heapLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(en heapEntry) {
	e.heap = append(e.heap, en)
	e.arena[en.id].pos = int32(len(e.heap) - 1)
	e.siftUp(len(e.heap) - 1)
}

// heapRemove deletes the entry at index i, preserving heap order.
func (e *Engine) heapRemove(i int32) {
	last := len(e.heap) - 1
	if int(i) != last {
		e.heap[i] = e.heap[last]
		e.arena[e.heap[i].id].pos = i
	}
	e.heap = e.heap[:last]
	if int(i) < last {
		e.siftDown(int(i))
		e.siftUp(int(i))
	}
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		e.arena[e.heap[i].id].pos = int32(i)
		e.arena[e.heap[parent].id].pos = int32(parent)
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && heapLess(e.heap[right], e.heap[left]) {
			least = right
		}
		if !heapLess(e.heap[least], e.heap[i]) {
			return
		}
		e.heap[i], e.heap[least] = e.heap[least], e.heap[i]
		e.arena[e.heap[i].id].pos = int32(i)
		e.arena[e.heap[least].id].pos = int32(least)
		i = least
	}
}
