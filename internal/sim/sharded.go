// Sharded conservative-time-window execution (classic PDES with lookahead)
// over the Component model.
//
// A ShardedEngine advances a set of placement GROUPS in lockstep windows
// [T, T+W): T is the global minimum pending-event time and W is the minimum
// latency of any cross-group message. Each group owns a private Engine;
// every interaction between components in different groups is carried by a
// mailbox message whose delivery time is at least W past its send time, so
// events inside one window on different groups are causally independent —
// each group may run its slice of the window on any worker. At the barrier
// the messages generated during the window are written straight into the
// destination group's calendar as envelope events, and every destination
// fires the envelopes of one tick in (port, seq) order, whatever the
// placement.
//
// The barrier delivers in port order: a stable counting sort on the dense,
// construction-ordered port ids, with no comparison sort. A port has one
// owner group (Post panics with *PortOwnerError otherwise), so its messages
// already sit in that group's outbox in seq order, and delivery is in
// (port, seq) order overall. A calendar fires equal-tick events in the order
// they were scheduled, and envelopes for different ticks never compete, so
// every destination fires exactly as under a (deliverAt, port, seq) merge.
// Nothing but the calendar observes the order of AtMsg calls: the envelope
// slots it assigns are invisible to handlers.
//
// Placement — which worker runs which groups — is decided once, at the first
// Run, by a PlacementPolicy over the static group weights (the components'
// CostWeight declarations); the default is greedy cost-balanced bin-packing
// (PlaceGroups). Each window runs the active groups on their placed workers.
// Because a group's event stream is confined to its own engine and the
// delivery order never mentions placement, the token-event sequence each
// component observes is identical whether its peers share its worker or run
// three workers away. That is why results are byte-identical at every
// worker count, and under every placement policy the tests force.
//
// All mailbox structures are pooled: outboxes are rings reset at each
// barrier, envelope slots and their address buffers recycle through
// per-engine free lists, so steady-state cross-group messaging performs no
// heap allocation.
package sim

import (
	"fmt"
	"runtime"
)

// Payload is the fixed-size value part of a cross-group message. The field
// meanings are defined by the communicating components (the sim layer only
// moves them); Addrs spans ride separately in the envelope.
type Payload struct {
	Kind uint16
	Tag  uint8
	Flag uint8
	U0   int32
	U1   int32
	A    uint64
	B    uint64
}

// Envelope is one mailbox message as seen by the destination handler. Addrs
// aliases a pooled buffer owned by the destination engine: handlers must
// copy anything they keep past return.
type Envelope struct {
	At       Tick
	Port     int32 // sending link id: the deterministic ordering key
	Seq      uint32
	Endpoint int32 // destination component id (registration order)
	P        Payload
	Addrs    []uint64
}

// outMsg is an envelope staged in a sender's outbox, its addrs span still
// referencing the outbox arena.
type outMsg struct {
	env      Envelope
	dstGroup int32
	aOff     int32
	aLen     int32
}

// msgRef locates a staged message: index i of group g's outbox.
type msgRef struct{ g, i int32 }

// outbox is one group's staging area for the current window. Single writer
// (whichever worker runs the group this window — exclusive by the plan);
// drained by the coordinator at the barrier.
type outbox struct {
	msgs  []outMsg
	arena []uint64
}

// groupState is one placement group: a private engine, its outbox, and its
// static weight.
type groupState struct {
	eng    *Engine
	out    outbox
	weight float64 // sum of registered component weights
}

// Outbox is the sender-side handle links bind to.
type Outbox struct {
	se    *ShardedEngine
	group int32
}

// ShardedEngine coordinates the groups across up to `workers` parallel
// worker shards.
type ShardedEngine struct {
	window  Tick
	workers int

	groups  []groupState
	comps   []Component // by endpoint (registration order)
	barrier func(at Tick)

	portSeq   []uint32
	portOwner []int32 // group that first posted on each port; -1 before
	curEnd    Tick    // current window end; Post asserts deliveries land beyond it

	// Barrier scratch, reused: portStart counts then prefix-sums each port's
	// messages, order lists the staged messages in port order, and inCount
	// tallies each group's incoming envelopes (envelope reservation).
	portStart []int32
	order     []msgRef
	inCount   []int32

	// Placement: the policy (nil means PlaceGroups) and the group -> worker
	// assignment it returned at the first Run.
	policy PlacementPolicy
	placed []int32

	// Per-window scratch (allocated once at first Run). nextAt caches each
	// group's earliest pending-event time; it is recomputed only when the
	// group ran last window (dirty) or scheduled since the cache was taken
	// (lastSched), so idle groups cost one comparison per window.
	nextAt    []Tick
	dirty     []bool
	lastSched []uint64
	active    []int32
	plan      [][]int32

	// persistent window workers (only for >1 worker on >1 core)
	workCh []chan Tick
	doneCh chan workerDone

	// Scheduling-quality counters. Deterministic for a fixed (config,
	// workers, placement) but NOT shard-count-invariant — invariance tests
	// zero them before comparing results.
	windowsRun    int64
	windowsElided int64
	envCount      int64
	crossCount    int64

	// Barrier elision: a window that staged no cross-group messages skips
	// the whole barrier sequence when no barrier is installed or the
	// installed barrier reports idle through barrierIdleFn.
	barrierIdleFn func() bool
}

// workerDone is one worker's window-completion report; pan carries a
// recovered panic (nil on a clean window) so a shard blowing a watchdog
// surfaces on the coordinator instead of killing the process from a bare
// goroutine.
type workerDone struct {
	id  int
	pan any
}

// NewSharded builds a sharded engine. window must be a positive lower bound
// on every cross-group message latency; workers must be >= 1 and bounds the
// parallelism (placement may leave workers idle, never exceed them).
func NewSharded(workers int, window Tick) *ShardedEngine {
	if workers < 1 {
		panic(fmt.Sprintf("sim: NewSharded with %d workers", workers))
	}
	if window <= 0 {
		panic(fmt.Sprintf("sim: NewSharded with window %d", window))
	}
	return &ShardedEngine{workers: workers, window: window}
}

// NewGroup allocates a placement group with a private engine, returning the
// group id. Groups must be created in a fixed construction order (ids are
// assigned sequentially); a group's weight is the sum of its registered
// components' CostWeight.
func (se *ShardedEngine) NewGroup() int32 {
	se.groups = append(se.groups, groupState{eng: NewEngine()})
	return int32(len(se.groups) - 1)
}

// Groups returns the group count.
func (se *ShardedEngine) Groups() int { return len(se.groups) }

// Group returns group g's engine; components constructed in that group use
// it for all their local scheduling.
func (se *ShardedEngine) Group(g int) *Engine { return se.groups[g].eng }

// GroupWeight returns a group's static weight (its components' summed
// CostWeight declarations).
func (se *ShardedEngine) GroupWeight(g int) float64 { return se.groups[g].weight }

// Register adds a component and returns its endpoint id (assigned in
// registration order — the order must not depend on worker count or
// placement). The component's static weight is added to its group's.
func (se *ShardedEngine) Register(c Component) int32 {
	g := c.ComponentGroup()
	if g < 0 || int(g) >= len(se.groups) {
		panic(fmt.Sprintf("sim: Register component in unknown group %d", g))
	}
	se.groups[g].weight += c.CostWeight()
	se.comps = append(se.comps, c)
	return int32(len(se.comps) - 1)
}

// Outbox returns the mailbox handle for senders living in group g.
func (se *ShardedEngine) Outbox(g int) *Outbox {
	return &Outbox{se: se, group: int32(g)}
}

// SetBarrier installs the hook run between windows (single-goroutine, after
// all workers have joined and messages have been injected). The argument is
// the closing window's end time. All cross-group bookkeeping — access-record
// merging, page-management epochs — belongs here.
func (se *ShardedEngine) SetBarrier(fn func(at Tick)) { se.barrier = fn }

// SetPlacement installs the placement policy, evaluated once, at the first
// Run, over the static group weights. nil selects PlaceGroups; only tests
// set another, to prove results byte-identical under every policy.
func (se *ShardedEngine) SetPlacement(p PlacementPolicy) { se.policy = p }

// SetBarrierIdle declares when the SetBarrier hook would be a no-op: fn
// reports true while skipping the barrier hook observes and changes
// nothing. A barrier without an idle predicate (including a nil fn)
// disables empty-window elision entirely (the engine cannot prove the hook
// is safe to skip).
func (se *ShardedEngine) SetBarrierIdle(fn func() bool) { se.barrierIdleFn = fn }

// NewPort allocates a global port id. Ports identify sending links; each
// barrier delivers messages in (port, seq) order, so port ids must be
// assigned in a construction order that does not depend on the worker count
// or placement. Each port belongs to exactly one sending component — only
// that component's group may Post on it. The per-port sequence counter has a
// single writer by this contract, and port-order delivery relies on it: the
// group that first posts on a port owns it, and Post panics with
// *PortOwnerError when another group posts there.
func (se *ShardedEngine) NewPort() int32 {
	se.portSeq = append(se.portSeq, 0)
	se.portOwner = append(se.portOwner, -1)
	return int32(len(se.portSeq) - 1)
}

// Post stages a message for delivery to dstEndpoint in dstGroup. Only the
// worker currently running the owning group may call it (links bound to
// this outbox are owned by that group). addrs is copied into the outbox
// arena and may be reused immediately.
func (ob *Outbox) Post(port int32, dstGroup, dstEndpoint int32, at Tick, p Payload, addrs []uint64) {
	se := ob.se
	if at <= se.curEnd {
		panic(&LookaheadError{Port: port, At: at, WindowEnd: se.curEnd})
	}
	if owner := se.portOwner[port]; owner != ob.group {
		if owner >= 0 {
			panic(&PortOwnerError{Port: port, Owner: owner, Group: ob.group})
		}
		se.portOwner[port] = ob.group
	}
	o := &se.groups[ob.group].out
	off := int32(len(o.arena))
	o.arena = append(o.arena, addrs...)
	seq := se.portSeq[port]
	se.portSeq[port] = seq + 1
	o.msgs = append(o.msgs, outMsg{
		env:      Envelope{At: at, Port: port, Seq: seq, Endpoint: dstEndpoint, P: p},
		dstGroup: dstGroup,
		aOff:     off,
		aLen:     int32(len(addrs)),
	})
}

// handlerFor resolves a message's destination: the registered component.
func (se *ShardedEngine) handlerFor(endpoint int32) MsgHandler {
	if int(endpoint) >= len(se.comps) {
		panic(fmt.Sprintf("sim: message for unregistered endpoint %d", endpoint))
	}
	return se.comps[endpoint]
}

// exchange drains every outbox into the destination calendars in port order
// (see the file comment): it counts each port's messages, prefix-sums the
// counts into each port's first slot, deals every message to its slot,
// reserves each destination's envelope slots for the window, and schedules
// the envelopes.
func (se *ShardedEngine) exchange() {
	total := se.stagedCount()
	if total == 0 {
		return
	}
	if se.inCount == nil {
		se.inCount = make([]int32, len(se.groups))
	}
	clear(se.inCount)
	if len(se.portStart) != len(se.portSeq) {
		se.portStart = make([]int32, len(se.portSeq))
	}
	clear(se.portStart)
	for i := range se.groups {
		msgs := se.groups[i].out.msgs
		for j := range msgs {
			m := &msgs[j]
			se.portStart[m.env.Port]++
			se.inCount[m.dstGroup]++
			if se.placed[i] != se.placed[m.dstGroup] {
				se.crossCount++
			}
		}
	}
	se.envCount += int64(total)
	var sum int32
	for p, n := range se.portStart {
		se.portStart[p] = sum
		sum += n
	}
	if cap(se.order) < total {
		se.order = make([]msgRef, total)
	}
	order := se.order[:total]
	for i := range se.groups {
		msgs := se.groups[i].out.msgs
		for j := range msgs {
			p := msgs[j].env.Port
			order[se.portStart[p]] = msgRef{int32(i), int32(j)}
			se.portStart[p]++
		}
	}
	for g := range se.groups {
		if se.inCount[g] > 0 {
			se.groups[g].eng.ReserveEnvelopes(int(se.inCount[g]))
		}
	}
	for _, r := range order {
		o := &se.groups[r.g].out
		m := &o.msgs[r.i]
		se.groups[m.dstGroup].eng.AtMsg(se.handlerFor(m.env.Endpoint), m.env,
			o.arena[m.aOff:m.aOff+m.aLen])
	}
	for i := range se.groups {
		se.groups[i].out.msgs = se.groups[i].out.msgs[:0]
		se.groups[i].out.arena = se.groups[i].out.arena[:0]
	}
}

// SchedStats is the scheduling-quality report of one run: how many barrier
// windows actually ran vs. were elided, how many envelopes crossed a shard
// boundary, and how evenly fired events spread across workers. All of it is
// deterministic for a fixed (config, workers, placement) — so it measures
// placement quality even where wall-clock is noise — but it is NOT
// shard-count-invariant: result-invariance comparisons must zero it.
type SchedStats struct {
	// Workers is the configured worker bound.
	Workers int
	// WindowsRun / WindowsElided partition the conservative windows the run
	// advanced through: elided windows skipped the whole barrier sequence.
	WindowsRun    int64
	WindowsElided int64
	// Envelopes counts every cross-group mailbox message merged;
	// CrossShardEnvelopes the subset whose source and destination groups were
	// placed on different workers.
	Envelopes           int64
	CrossShardEnvelopes int64
	// WorkerFiredShare is each worker's share of all fired events (sums to 1
	// when any event fired) — the load-balance view.
	WorkerFiredShare []float64
}

// SchedStats reports the run's scheduling-quality counters. Call after Run;
// it allocates (once) and never mutates engine state.
func (se *ShardedEngine) SchedStats() SchedStats {
	st := SchedStats{
		Workers:             se.workers,
		WindowsRun:          se.windowsRun,
		WindowsElided:       se.windowsElided,
		Envelopes:           se.envCount,
		CrossShardEnvelopes: se.crossCount,
		WorkerFiredShare:    make([]float64, se.workers),
	}
	totals := make([]uint64, se.workers)
	for g, w := range se.placed {
		totals[w] += se.groups[g].eng.Fired()
	}
	var sum uint64
	for _, t := range totals {
		sum += t
	}
	if sum > 0 {
		for w, t := range totals {
			st.WorkerFiredShare[w] = float64(t) / float64(sum)
		}
	}
	return st
}

// PendingMessages reports staged-but-undelivered messages (outboxes plus
// calendar envelopes whose events have not fired) — for leak tests.
func (se *ShardedEngine) PendingMessages() int {
	n := 0
	for i := range se.groups {
		n += len(se.groups[i].out.msgs)
		n += se.groups[i].eng.PendingEnvelopes()
	}
	return n
}

// InboxCapacity returns the total envelope slots ever allocated on a
// group's calendar — steady-state traffic must stop growing it (reuse
// tests).
func (se *ShardedEngine) InboxCapacity(g int) int {
	return se.groups[g].eng.EnvelopeCapacity()
}

// startWorkers launches one persistent goroutine per worker beyond the
// coordinator-run worker 0. Workers block on their channel between windows
// and run their slice of the current plan.
func (se *ShardedEngine) startWorkers() {
	if se.workCh != nil {
		return
	}
	se.workCh = make([]chan Tick, se.workers)
	se.doneCh = make(chan workerDone, se.workers)
	for i := 1; i < se.workers; i++ {
		ch := make(chan Tick, 1)
		se.workCh[i] = ch
		go func(id int) {
			for deadline := range ch {
				se.doneCh <- workerDone{id: id, pan: se.runSlice(id, deadline)}
			}
		}(i)
	}
}

// runSlice runs one worker's plan slice for the window, converting a panic
// into a value the coordinator re-raises after every worker has joined —
// the join must complete either way or the next window's dispatch would
// deadlock against a dead worker.
func (se *ShardedEngine) runSlice(id int, deadline Tick) (pan any) {
	defer func() { pan = recover() }()
	for _, g := range se.plan[id] {
		se.groups[g].eng.RunUntil(deadline)
	}
	return nil
}

func (se *ShardedEngine) stopWorkers() {
	if se.workCh == nil {
		return
	}
	for i := 1; i < len(se.workCh); i++ {
		close(se.workCh[i])
	}
	se.workCh = nil
	se.doneCh = nil
}

// ensureScratch sizes the per-window scratch to the group/worker counts and
// places the groups: the one evaluation of the placement policy.
func (se *ShardedEngine) ensureScratch() {
	n := len(se.groups)
	if len(se.nextAt) == n && len(se.plan) == se.workers {
		return
	}
	se.nextAt = make([]Tick, n)
	se.dirty = make([]bool, n)
	se.lastSched = make([]uint64, n)
	for i := range se.dirty {
		se.dirty[i] = true
	}
	se.active = make([]int32, 0, n)
	se.plan = make([][]int32, se.workers)
	for w := range se.plan {
		se.plan[w] = make([]int32, 0, n)
	}
	weights := make([]float64, n)
	for g := range se.groups {
		weights[g] = se.groups[g].weight
	}
	policy := se.policy
	if policy == nil {
		policy = PlaceGroups
	}
	se.placed = policy(weights, se.workers)
	if len(se.placed) != n {
		panic(fmt.Sprintf("sim: placement policy returned %d assignments for %d groups", len(se.placed), n))
	}
	for g, w := range se.placed {
		if w < 0 || int(w) >= se.workers {
			panic(fmt.Sprintf("sim: placement policy put group %d on worker %d of %d", g, w, se.workers))
		}
	}
}

// buildPlan deals the window's active groups to their placed workers.
func (se *ShardedEngine) buildPlan() {
	for w := range se.plan {
		se.plan[w] = se.plan[w][:0]
	}
	for _, g := range se.active {
		w := se.placed[g]
		se.plan[w] = append(se.plan[w], g)
	}
}

// runWindow executes the active groups up to deadline. When real cores do
// not back more than one worker, or only one group is active, the
// coordinator runs the active groups in order; otherwise the plan's worker
// slices run in parallel. Group order inside a window is invisible: groups
// share no state mid-window.
func (se *ShardedEngine) runWindow(deadline Tick, multi bool) {
	if !multi || len(se.active) <= 1 {
		for _, g := range se.active {
			se.groups[g].eng.RunUntil(deadline)
		}
		return
	}
	se.buildPlan()
	dispatched := 0
	for w := 1; w < se.workers; w++ {
		if len(se.plan[w]) > 0 {
			se.workCh[w] <- deadline
			dispatched++
		}
	}
	pan := se.runSlice(0, deadline)
	for ; dispatched > 0; dispatched-- {
		if d := <-se.doneCh; d.pan != nil && pan == nil {
			pan = d.pan
		}
	}
	if pan != nil {
		panic(pan)
	}
}

// stagedCount tallies messages staged in every outbox — the elision gate's
// hard evidence (O(groups), no synchronization: workers have joined).
func (se *ShardedEngine) stagedCount() int {
	n := 0
	for i := range se.groups {
		n += len(se.groups[i].out.msgs)
	}
	return n
}

// canElide reports whether skipping the barrier sequence would be
// unobservable given an empty exchange: no barrier installed, or its idle
// predicate reporting idle.
func (se *ShardedEngine) canElide() bool {
	return se.barrier == nil || (se.barrierIdleFn != nil && se.barrierIdleFn())
}

// elideWindow skips the barrier sequence (exchange, barrier) for a window
// that staged nothing. It re-verifies every outbox is empty and panics with
// *ElisionError otherwise — eliding a window with a pending cross-shard
// envelope would silently drop it.
func (se *ShardedEngine) elideWindow() {
	for i := range se.groups {
		if n := len(se.groups[i].out.msgs); n > 0 {
			panic(&ElisionError{Group: int32(i), Staged: n})
		}
	}
	se.windowsElided++
}

// Run advances windows until every group drains and no messages remain, and
// returns the final simulation time (the maximum across groups).
func (se *ShardedEngine) Run() Tick {
	if len(se.comps) == 0 && len(se.groups) > 0 {
		panic("sim: ShardedEngine.Run without registered components")
	}
	se.ensureScratch()
	multi := se.workers > 1 && runtime.GOMAXPROCS(0) > 1 && len(se.groups) > 1
	if multi {
		se.startWorkers()
		defer se.stopWorkers()
	}
	// Inject anything staged before Run (e.g. the initial workload pump
	// posts messages outside any window).
	se.exchange()
	var end Tick
	for {
		// One cached queue scan per group per window: a group's snapshot is
		// refreshed only when it ran last window or scheduled since (new
		// events are the only way its earliest time moves earlier — firing
		// and cancelling are caught the next time it runs). Everything
		// below (window start, active set, plan) derives from this.
		t := MaxTick
		for gi := range se.groups {
			eng := se.groups[gi].eng
			if sched := eng.ScheduleCount(); se.dirty[gi] || sched != se.lastSched[gi] {
				nt, ok := eng.NextTime()
				if !ok {
					nt = MaxTick
				}
				se.nextAt[gi] = nt
				se.dirty[gi] = false
				se.lastSched[gi] = sched
			}
			if se.nextAt[gi] < t {
				t = se.nextAt[gi]
			}
		}
		if t == MaxTick {
			break
		}
		winEnd := t + se.window
		se.curEnd = winEnd - 1
		se.active = se.active[:0]
		for gi := range se.groups {
			if se.nextAt[gi] <= winEnd-1 {
				se.active = append(se.active, int32(gi))
				se.dirty[gi] = true
			}
		}
		se.runWindow(winEnd-1, multi)
		if se.stagedCount() == 0 && se.canElide() {
			se.elideWindow()
		} else {
			se.windowsRun++
			se.exchange()
			if se.barrier != nil {
				se.barrier(winEnd)
			}
		}
		if winEnd > end {
			end = winEnd
		}
	}
	for gi := range se.groups {
		if now := se.groups[gi].eng.Now(); now > end {
			end = now
		}
	}
	return end
}
