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
// the messages generated during the window are merged in a deterministic,
// placement-independent order ((deliverAt, port, seq)) and written straight
// into the destination group's calendar as envelope events.
//
// Placement — which worker runs which groups — is decided per window by
// greedy cost-balanced bin-packing: group weights are seeded from the
// components' static CostWeight declarations and refined by per-window
// measured event counts (each group engine's fired-event delta). Because a
// group's event stream is confined to its own engine and the merge key never
// mentions placement, the token-event sequence each component observes is
// identical whether its peers share its worker or run three workers away.
// That is what lets the figure harness pick any worker count AND any
// placement policy and produce byte-identical tables.
//
// All mailbox structures are pooled: outboxes are rings reset at each
// barrier, envelope slots and their address buffers recycle through
// per-engine free lists, so steady-state cross-group messaging performs no
// heap allocation.
package sim

import (
	"fmt"
	"runtime"
	"sort"
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

// outbox is one group's staging area for the current window. Single writer
// (whichever worker runs the group this window — exclusive by the plan);
// drained by the coordinator at the barrier.
type outbox struct {
	msgs  []outMsg
	arena []uint64
}

// groupState is one placement group: a private engine, its outbox, and its
// cost bookkeeping.
type groupState struct {
	eng    *Engine
	out    outbox
	weight float64 // static seed (sum of registered component weights)
}

// Outbox is the sender-side handle links bind to.
type Outbox struct {
	se    *ShardedEngine
	group int32
}

// deliverShim routes envelopes to a ShardedEngine-level dispatch function —
// the low-level alternative to registering Components (tests, harnesses).
type deliverShim struct{ se *ShardedEngine }

func (d deliverShim) HandleMsg(env Envelope) { d.se.deliver(env) }

// ShardedEngine coordinates the groups across up to `workers` parallel
// worker shards.
type ShardedEngine struct {
	window  Tick
	workers int

	groups  []groupState
	comps   []Component // by endpoint (registration order)
	aux     []Component // cost/hook-only components (no endpoint)
	hooked  []Component // components whose window hooks run (opt-in)
	deliver func(Envelope)
	barrier func(at Tick)
	shim    deliverShim

	portSeq []uint32
	curEnd  Tick // current window end; Post asserts deliveries land beyond it

	merged    []int // indices into gather, reused
	gather    []outMsg
	gatherSrc []int32 // source group per gathered message (arena lookup)
	inCount   []int32 // per-group incoming tally (envelope reservation)

	// Placement state: an optional static policy, else per-window LPT over
	// measured costs.
	policy PlacementPolicy
	placed []int32 // group -> worker under a static policy

	cost      []float64 // refined per-group cost (EMA of fired events)
	prevFired []uint64

	// Per-window scratch (allocated once at first Run). nextAt caches each
	// group's earliest pending-event time; it is recomputed only when the
	// group ran last window (dirty) or scheduled since the cache was taken
	// (lastSched), so idle groups cost one comparison per window.
	nextAt    []Tick
	dirty     []bool
	lastSched []uint64
	active    []int32
	activeW   []float64
	orderSc   []int32
	loadSc    []float64
	planned   []int32
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

	// curWorker is each group's worker under the most recent plan (static
	// assignment when placed, zeros for one worker); workerFired accumulates
	// fired-event deltas per worker for the fired-share stat.
	curWorker   []int32
	workerFired []uint64

	// Barrier-elision state: a window that staged no cross-group messages
	// skips the whole barrier sequence when every hooked component is a
	// BarrierIdler reporting idle and the installed barrier (if any) reports
	// idle through barrierIdleFn. A hooked component that is not an idler
	// vetoes elision for the run (hookVeto).
	idlers        []BarrierIdler
	hookVeto      bool
	barrierIdleFn func() bool

	// Traffic-affinity state (dynamic multi-worker placement only): aff is a
	// dense n x n EMA of per-window cross-group envelope counts keyed
	// a*n+b (a < b), affPairs lists the live keys, affDelta/affTouched stage
	// the current window's counts. The packer scratch below keeps the
	// per-window affinity plan allocation-free.
	affinity    bool
	aff         []float64
	affDelta    []float64
	affIn       []bool
	affPairs    []int
	affTouched  []int
	edgeSc      []AffinityEdge
	parentSc    []int32
	cwSc        []float64
	rootsSc     []int32
	groupPos    []int32
	posStamp    []uint32
	posStampGen uint32
}

// affMaxGroups bounds the dense affinity matrix: beyond it the engine falls
// back to weight-only LPT rather than allocate O(n^2) floats.
const affMaxGroups = 512

// affPrune is the EMA floor below which an affinity pair is dropped from the
// live set — stale edges decay out in a few dozen windows.
const affPrune = 1.0 / 1024

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
	se := &ShardedEngine{workers: workers, window: window, affinity: true}
	se.shim = deliverShim{se}
	return se
}

// NewGroup allocates a placement group with a static cost-weight seed and a
// private engine, returning the group id. Groups must be created in a fixed
// construction order (ids are assigned sequentially).
func (se *ShardedEngine) NewGroup(weight float64) int32 {
	se.groups = append(se.groups, groupState{eng: NewEngine(), weight: weight})
	return int32(len(se.groups) - 1)
}

// Groups returns the group count.
func (se *ShardedEngine) Groups() int { return len(se.groups) }

// Workers returns the worker bound.
func (se *ShardedEngine) Workers() int { return se.workers }

// Group returns group g's engine; components constructed in that group use
// it for all their local scheduling.
func (se *ShardedEngine) Group(g int) *Engine { return se.groups[g].eng }

// GroupWeight returns a group's static weight seed (its components' summed
// CostWeight declarations plus any NewGroup seed).
func (se *ShardedEngine) GroupWeight(g int) float64 { return se.groups[g].weight }

// MeasuredCost returns a group's refined cost estimate: the exponential
// moving average of its per-window fired-event counts, seeded from the
// static weight. Dynamic multi-worker placement balances these; runs that
// never consult them (one worker, static policy) keep the seed.
func (se *ShardedEngine) MeasuredCost(g int) float64 {
	if se.cost == nil {
		return se.groups[g].weight
	}
	return se.cost[g]
}

// Register adds a component and returns its endpoint id (assigned in
// registration order — the order must not depend on worker count or
// placement). The component's static weight is folded into its group's seed.
func (se *ShardedEngine) Register(c Component) int32 {
	g := c.ComponentGroup()
	if g < 0 || int(g) >= len(se.groups) {
		panic(fmt.Sprintf("sim: Register component in unknown group %d", g))
	}
	se.groups[g].weight += c.CostWeight()
	se.comps = append(se.comps, c)
	if c.UsesWindowHooks() {
		se.hooked = append(se.hooked, c)
		se.noteIdler(c)
	}
	return int32(len(se.comps) - 1)
}

// RegisterAux adds a cost-contributing, hook-receiving component that never
// receives mailbox messages and gets no endpoint — DRAM channel banks use
// this so per-bank weights make a memory node's true cost visible to the
// placement.
func (se *ShardedEngine) RegisterAux(c Component) {
	g := c.ComponentGroup()
	if g < 0 || int(g) >= len(se.groups) {
		panic(fmt.Sprintf("sim: RegisterAux component in unknown group %d", g))
	}
	se.groups[g].weight += c.CostWeight()
	se.aux = append(se.aux, c)
	if c.UsesWindowHooks() {
		se.hooked = append(se.hooked, c)
		se.noteIdler(c)
	}
}

// noteIdler records a hooked component's elision capability: BarrierIdlers
// are polled each window, anything else conservatively vetoes elision for
// the whole run.
func (se *ShardedEngine) noteIdler(c Component) {
	if b, ok := c.(BarrierIdler); ok {
		se.idlers = append(se.idlers, b)
	} else {
		se.hookVeto = true
	}
}

// Outbox returns the mailbox handle for senders living in group g.
func (se *ShardedEngine) Outbox(g int) *Outbox {
	return &Outbox{se: se, group: int32(g)}
}

// SetDeliver installs a dispatch override invoked instead of the registered
// component's HandleMsg — the low-level hook tests and custom harnesses use.
// It is invoked on the destination group's worker at each message's delivery
// time and must only touch state owned by the destination's group.
func (se *ShardedEngine) SetDeliver(fn func(Envelope)) { se.deliver = fn }

// SetBarrier installs a hook run between windows (single-goroutine, after
// all workers have joined, messages have been injected, and component
// WindowEnd hooks have run). The argument is the closing window's end time.
// Cross-group bookkeeping — access-count merging, page-management epochs —
// belongs here.
func (se *ShardedEngine) SetBarrier(fn func(at Tick)) { se.barrier = fn }

// SetPlacement installs a static placement policy evaluated once, at the
// first Run, over the static group weights. The default (nil) is dynamic:
// greedy cost-balanced bin-packing re-planned every window from measured
// event counts. Placement is pure scheduling — results are byte-identical
// under every policy.
func (se *ShardedEngine) SetPlacement(p PlacementPolicy) { se.policy = p }

// SetAffinityPlacement toggles traffic-affinity packing in the dynamic
// placement (default on): when enabled, the per-window plan co-locates
// chatty group pairs along the measured envelope-count EMA subject to the
// cost-balance bound, falling back to weight-only LPT while no edges have
// been observed. Pure scheduling — results are byte-identical either way.
// Must be called before the first Run.
func (se *ShardedEngine) SetAffinityPlacement(on bool) { se.affinity = on }

// SetBarrierIdle declares when the SetBarrier hook would be a no-op: fn
// reports true while skipping the barrier hook observes and changes
// nothing. Installing a barrier without an idle predicate disables
// empty-window elision entirely (the engine cannot prove the hook is safe
// to skip).
func (se *ShardedEngine) SetBarrierIdle(fn func() bool) { se.barrierIdleFn = fn }

// NewPort allocates a global port id. Ports identify sending links; the
// merge at each barrier orders messages by (deliverAt, port, seq), so port
// ids must be assigned in a construction order that does not depend on the
// worker count or placement. Each port belongs to exactly one sending
// component — only that component's group may Post on it (the per-port
// sequence counter has a single writer by this contract).
func (se *ShardedEngine) NewPort() int32 {
	se.portSeq = append(se.portSeq, 0)
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

// handlerFor resolves a message's destination: the deliver override when
// installed, else the registered component.
func (se *ShardedEngine) handlerFor(endpoint int32) MsgHandler {
	if se.deliver != nil {
		return se.shim
	}
	if int(endpoint) >= len(se.comps) {
		panic(fmt.Sprintf("sim: message for unregistered endpoint %d", endpoint))
	}
	return se.comps[endpoint]
}

// mergeSorter orders the gathered messages by (At, Port, Seq) — a key that
// depends only on simulated time and construction-ordered port ids, never on
// placement.
type mergeSorter struct{ se *ShardedEngine }

func (ms mergeSorter) Len() int { return len(ms.se.merged) }
func (ms mergeSorter) Less(i, j int) bool {
	a := &ms.se.gather[ms.se.merged[i]].env
	b := &ms.se.gather[ms.se.merged[j]].env
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Port != b.Port {
		return a.Port < b.Port
	}
	return a.Seq < b.Seq
}
func (ms mergeSorter) Swap(i, j int) {
	ms.se.merged[i], ms.se.merged[j] = ms.se.merged[j], ms.se.merged[i]
}

// exchange drains every outbox, merges deterministically, reserves each
// destination's envelope slots for the window, and writes the envelopes
// straight into the destination calendars. gather keeps per-message arena
// provenance via group-ordered concatenation.
func (se *ShardedEngine) exchange() {
	se.gather = se.gather[:0]
	se.merged = se.merged[:0]
	if se.inCount == nil {
		se.inCount = make([]int32, len(se.groups))
	}
	for i := range se.inCount {
		se.inCount[i] = 0
	}
	for i := range se.groups {
		o := &se.groups[i].out
		src := int32(i)
		for j := range o.msgs {
			se.gather = append(se.gather, o.msgs[j])
			se.merged = append(se.merged, len(se.gather)-1)
			se.gatherSrc = append(se.gatherSrc, src)
			dst := o.msgs[j].dstGroup
			se.inCount[dst]++
			se.envCount++
			if se.curWorker[src] != se.curWorker[dst] {
				se.crossCount++
			}
			if se.aff != nil && src != dst {
				a, b := src, dst
				if a > b {
					a, b = b, a
				}
				k := int(a)*len(se.groups) + int(b)
				if se.affDelta[k] == 0 {
					se.affTouched = append(se.affTouched, k)
				}
				se.affDelta[k]++
			}
		}
	}
	sort.Sort(mergeSorter{se})
	for g := range se.groups {
		if se.inCount[g] > 0 {
			se.groups[g].eng.ReserveEnvelopes(int(se.inCount[g]))
		}
	}
	for _, gi := range se.merged {
		m := &se.gather[gi]
		srcArena := se.groups[se.gatherSrc[gi]].out.arena
		se.groups[m.dstGroup].eng.AtMsg(se.handlerFor(m.env.Endpoint), m.env,
			srcArena[m.aOff:m.aOff+m.aLen])
	}
	se.gatherSrc = se.gatherSrc[:0]
	for i := range se.groups {
		se.groups[i].out.msgs = se.groups[i].out.msgs[:0]
		se.groups[i].out.arena = se.groups[i].out.arena[:0]
	}
	if se.aff != nil {
		se.updateAffinity()
	}
}

// updateAffinity folds the window's staged pair counts into the affinity
// EMA (same 0.75/0.25 blend as the cost EMA) and prunes pairs that decayed
// below affPrune, keeping the live-pair list compact. The live-pair order is
// a function of message history alone — and the packer fully re-sorts edges
// anyway — so the resulting plans are deterministic.
func (se *ShardedEngine) updateAffinity() {
	w := 0
	for _, k := range se.affPairs {
		v := 0.75*se.aff[k] + 0.25*se.affDelta[k]
		se.affDelta[k] = 0
		if v < affPrune {
			se.aff[k] = 0
			se.affIn[k] = false
			continue
		}
		se.aff[k] = v
		se.affPairs[w] = k
		w++
	}
	se.affPairs = se.affPairs[:w]
	for _, k := range se.affTouched {
		d := se.affDelta[k]
		if d == 0 {
			continue // already live: folded by the decay pass above
		}
		se.affDelta[k] = 0
		se.aff[k] = 0.25 * d
		se.affIn[k] = true
		se.affPairs = append(se.affPairs, k)
	}
	se.affTouched = se.affTouched[:0]
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
	// planned onto different workers — the hop count placement minimizes.
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
	switch {
	case se.workers == 1:
		for g := range se.groups {
			totals[0] += se.groups[g].eng.Fired()
		}
	case se.placed != nil:
		for g := range se.groups {
			totals[se.placed[g]] += se.groups[g].eng.Fired()
		}
	case se.curWorker != nil:
		// Dynamic placement: windows already refined are attributed in
		// workerFired; the tail since the last refinement goes to each
		// group's current worker.
		copy(totals, se.workerFired)
		for g := range se.groups {
			totals[se.curWorker[g]] += se.groups[g].eng.Fired() - se.prevFired[g]
		}
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
// seeds the refined costs from the static weights.
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
	se.activeW = make([]float64, 0, n)
	se.orderSc = make([]int32, n)
	se.loadSc = make([]float64, se.workers)
	se.planned = make([]int32, n)
	se.plan = make([][]int32, se.workers)
	for w := range se.plan {
		se.plan[w] = make([]int32, 0, n)
	}
	se.cost = make([]float64, n)
	se.prevFired = make([]uint64, n)
	for g := range se.groups {
		se.cost[g] = se.groups[g].weight
		se.prevFired[g] = se.groups[g].eng.Fired()
	}
	if se.policy != nil {
		weights := make([]float64, n)
		for g := range se.groups {
			weights[g] = se.groups[g].weight
		}
		se.placed = se.policy(weights, se.workers)
		if len(se.placed) != n {
			panic(fmt.Sprintf("sim: placement policy returned %d assignments for %d groups", len(se.placed), n))
		}
		for g, w := range se.placed {
			if w < 0 || int(w) >= se.workers {
				panic(fmt.Sprintf("sim: placement policy put group %d on worker %d of %d", g, w, se.workers))
			}
		}
	}
	se.curWorker = make([]int32, n)
	if se.placed != nil {
		copy(se.curWorker, se.placed)
	}
	se.workerFired = make([]uint64, se.workers)
	if se.affinity && se.workers > 1 && se.placed == nil && n <= affMaxGroups {
		se.aff = make([]float64, n*n)
		se.affDelta = make([]float64, n*n)
		se.affIn = make([]bool, n*n)
		se.affPairs = se.affPairs[:0]
		se.affTouched = se.affTouched[:0]
		se.parentSc = make([]int32, n)
		se.cwSc = make([]float64, n)
		se.rootsSc = make([]int32, n)
		se.groupPos = make([]int32, n)
		se.posStamp = make([]uint32, n)
		se.posStampGen = 0
	} else {
		se.aff = nil
	}
}

// buildPlan partitions the window's active groups across workers: a static
// policy's assignment when installed, else greedy LPT bin-packing over the
// measured costs.
func (se *ShardedEngine) buildPlan() {
	for w := range se.plan {
		se.plan[w] = se.plan[w][:0]
	}
	if se.placed != nil {
		for _, g := range se.active {
			w := se.placed[g]
			se.plan[w] = append(se.plan[w], g)
		}
		return
	}
	k := len(se.active)
	se.activeW = se.activeW[:0]
	for _, g := range se.active {
		se.activeW = append(se.activeW, se.cost[g])
	}
	if !se.planAffinity(k) {
		placeLPT(se.activeW, se.orderSc[:k], se.loadSc, se.planned[:k])
	}
	for i, g := range se.active {
		w := se.planned[i]
		se.plan[w] = append(se.plan[w], g)
		se.curWorker[g] = w
	}
}

// planAffinity fills planned[:k] with the traffic-affinity assignment of the
// active groups when the affinity matrix is live and has edges between them;
// it reports false (leaving planned untouched) when weight-only LPT should
// run instead. Edges are projected onto active-local indices via an
// epoch-stamped position map, then packed by placeAffinity — allocation-free
// past the first window at each size.
func (se *ShardedEngine) planAffinity(k int) bool {
	if se.aff == nil || len(se.affPairs) == 0 || k < 2 {
		return false
	}
	se.posStampGen++
	if se.posStampGen == 0 {
		for i := range se.posStamp {
			se.posStamp[i] = 0
		}
		se.posStampGen = 1
	}
	for i, g := range se.active {
		se.posStamp[g] = se.posStampGen
		se.groupPos[g] = int32(i)
	}
	se.edgeSc = se.edgeSc[:0]
	n := len(se.groups)
	for _, p := range se.affPairs {
		a, b := int32(p/n), int32(p%n)
		if se.posStamp[a] != se.posStampGen || se.posStamp[b] != se.posStampGen {
			continue
		}
		se.edgeSc = append(se.edgeSc, AffinityEdge{A: se.groupPos[a], B: se.groupPos[b], W: se.aff[p]})
	}
	if len(se.edgeSc) == 0 {
		return false
	}
	sortAffinityEdges(se.edgeSc)
	placeAffinity(se.activeW, se.edgeSc, se.workers,
		se.parentSc[:k], se.cwSc[:k], se.loadSc, se.rootsSc[:k], se.planned[:k])
	return true
}

// runWindow executes the active groups up to deadline. With one active
// group (or one worker) everything runs on the coordinator; otherwise the
// plan's worker slices run in parallel when real cores back them, and
// sequentially (still exercising the plan) on a single core.
func (se *ShardedEngine) runWindow(deadline Tick, multi bool) {
	if len(se.active) == 0 {
		return
	}
	if len(se.active) == 1 || se.workers == 1 {
		for _, g := range se.active {
			se.groups[g].eng.RunUntil(deadline)
		}
		return
	}
	se.buildPlan()
	if !multi {
		for w := range se.plan {
			for _, g := range se.plan[w] {
				se.groups[g].eng.RunUntil(deadline)
			}
		}
		return
	}
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

// refineCosts folds each group's fired-event delta for the closed window
// into its cost EMA — the measured refinement the next window's plan packs.
// With one worker or a static policy no plan ever reads the costs, so the
// per-window Fired reads are skipped and MeasuredCost stays at the seed.
func (se *ShardedEngine) refineCosts() {
	if se.workers == 1 || se.placed != nil {
		return
	}
	for g := range se.groups {
		f := se.groups[g].eng.Fired()
		delta := f - se.prevFired[g]
		se.prevFired[g] = f
		se.workerFired[se.curWorker[g]] += delta
		se.cost[g] = 0.75*se.cost[g] + 0.25*float64(delta)
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
// unobservable given an empty exchange: no hooked component lacking a
// BarrierIdle predicate, every idler idle, and the installed barrier (if
// any) declaring itself idle.
func (se *ShardedEngine) canElide() bool {
	if se.hookVeto {
		return false
	}
	if se.barrier != nil && se.barrierIdleFn == nil {
		return false
	}
	for _, b := range se.idlers {
		if !b.BarrierIdle() {
			return false
		}
	}
	if se.barrierIdleFn != nil && !se.barrierIdleFn() {
		return false
	}
	return true
}

// elideWindow skips the barrier sequence (exchange, WindowEnd hooks,
// barrier, cost refinement) for a window that staged nothing. It re-verifies
// every outbox is empty and panics with *ElisionError otherwise — eliding a
// window with a pending cross-shard envelope would silently drop it.
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
	if se.deliver == nil && len(se.comps) == 0 && len(se.groups) > 0 {
		panic("sim: ShardedEngine.Run without registered components or SetDeliver")
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
		for _, c := range se.hooked {
			c.WindowStart(t)
		}
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
			se.refineCosts()
			se.exchange()
			for _, c := range se.hooked {
				c.WindowEnd(winEnd)
			}
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
