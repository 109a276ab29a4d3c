// The Component model: every piece of simulated hardware — a host socket
// with its DIMMs, a fabric switch with its buffer, a CXL memory expander,
// a DRAM channel bank, a numasim memory node — is a Component living in a
// placement group. A group owns one Engine and is the unit the sharded
// coordinator schedules onto worker shards; components in the same group may
// share state and call each other directly, components in different groups
// interact only through mailbox messages. Because each group's event stream
// is confined to its own engine and cross-group messages merge in a
// placement-independent order, WHERE a group runs is a pure scheduling
// decision: results are byte-identical for every placement and worker count.
package sim

// MsgHandler consumes one mailbox envelope. The envelope's Addrs span
// aliases a pooled buffer owned by the destination engine; handlers must
// copy anything they keep past return.
type MsgHandler interface {
	HandleMsg(Envelope)
}

// Component is the common interface of simulated hardware units registered
// with a ShardedEngine. Registration order assigns the endpoint id the
// mailbox routes by, so components must be registered in a fixed
// construction order that does not depend on worker count or placement.
type Component interface {
	MsgHandler

	// ComponentGroup returns the placement group the component lives on.
	// Every component schedules exclusively on its group's Engine.
	ComponentGroup() int32

	// CostWeight is the component's static relative execution cost. Group
	// weights (the sum over a group's components) seed the cost-balanced
	// placement; per-window measured event counts refine them at runtime.
	CostWeight() float64

	// WindowStart runs single-threaded before the shards launch a window
	// starting at `at`; WindowEnd runs single-threaded at the barrier
	// closing it (argument = window end), after messages have merged, in
	// registration (endpoint) order. Both hooks may touch cross-group
	// state — nothing else runs. They are invoked only on components whose
	// UsesWindowHooks reports true: windows are ~50 ns of simulated time,
	// so a no-op hook on every component would dominate the coordinator.
	UsesWindowHooks() bool
	WindowStart(at Tick)
	WindowEnd(at Tick)
}

// BarrierIdler is an optional Component extension for hooked components
// whose window hooks are pure merges of buffered state: BarrierIdle reports
// true when the component has nothing buffered, so skipping its WindowEnd
// would be a no-op. When every hooked component is an idler and all report
// idle — and the installed barrier (if any) declares itself idle via
// SetBarrierIdle — a window that staged no cross-group messages skips the
// whole barrier sequence (exchange, hooks, barrier, cost refinement).
// Elision is pure scheduling: it only ever skips work that would not have
// observed or changed anything. A hooked component that does NOT implement
// BarrierIdler conservatively vetoes elision for the whole run.
type BarrierIdler interface {
	BarrierIdle() bool
}

// NoWindowHooks opts a component out of the per-window hooks: embed it in
// components that need no barrier work. Components overriding WindowStart
// or WindowEnd must also override UsesWindowHooks to opt into per-window
// invocation.
type NoWindowHooks struct{}

// UsesWindowHooks reports false.
func (NoWindowHooks) UsesWindowHooks() bool { return false }

// WindowStart is a no-op.
func (NoWindowHooks) WindowStart(Tick) {}

// WindowEnd is a no-op.
func (NoWindowHooks) WindowEnd(Tick) {}

// ComponentBase provides no-op window hooks and stored group/weight fields,
// so concrete components only implement what they use.
type ComponentBase struct {
	NoWindowHooks
	Group  int32
	Weight float64
}

// ComponentGroup returns the stored placement group.
func (b *ComponentBase) ComponentGroup() int32 { return b.Group }

// CostWeight returns the stored static weight.
func (b *ComponentBase) CostWeight() float64 { return b.Weight }

// PlacementPolicy assigns each placement group to a worker in [0, workers).
// weights[g] is group g's current cost estimate. Policies are pure
// scheduling: any total function onto [0, workers) yields byte-identical
// simulation results (the placement-independence property tests pin this).
type PlacementPolicy func(weights []float64, workers int) []int32

// PlaceGroups is the default policy: greedy cost-balanced bin-packing
// (longest-processing-time): groups sorted by descending weight (ties by
// ascending group id) are dealt to the least-loaded worker (ties to the
// lowest worker index). The assignment is deterministic in (weights,
// workers).
func PlaceGroups(weights []float64, workers int) []int32 {
	out := make([]int32, len(weights))
	load := make([]float64, workers)
	order := make([]int32, len(weights))
	placeLPT(weights, order, load, out)
	return out
}

// AffinityEdge is one measured-traffic edge between two groups: W envelopes
// per window (EMA) flowing between groups A and B (A < B; direction does not
// matter for co-location).
type AffinityEdge struct {
	A, B int32
	W    float64
}

// affinitySlack is how far above the perfectly balanced per-worker share a
// cluster of chatty groups may grow before the packer refuses to merge it
// further — the cost-balance bound traffic affinity is subject to. 1.25
// trades at most 25% imbalance for keeping a hot pair's messages on one
// worker (where their cross-shard hop costs nothing to coordinate).
const affinitySlack = 1.25

// PlaceGroupsWithAffinity is the traffic-affinity packer: greedy cluster
// merging along the heaviest measured-traffic edges, subject to the
// cost-balance cap (total/workers x affinitySlack), followed by LPT
// bin-packing of the resulting clusters. With no edges it degenerates to
// PlaceGroups exactly. The assignment is deterministic in (weights, edges,
// workers): edges are ordered by (W desc, A asc, B asc) before merging and
// clusters by (weight desc, smallest-member asc) before dealing. Like every
// placement, it is pure scheduling — results are byte-identical under it.
func PlaceGroupsWithAffinity(weights []float64, edges []AffinityEdge, workers int) []int32 {
	n := len(weights)
	out := make([]int32, n)
	es := make([]AffinityEdge, len(edges))
	copy(es, edges)
	sortAffinityEdges(es)
	placeAffinity(weights, es, workers,
		make([]int32, n), make([]float64, n), make([]float64, workers),
		make([]int32, n), out)
	return out
}

// sortAffinityEdges orders edges by (W desc, A asc, B asc) — insertion sort:
// edge lists are small and nearly sorted across windows, and it allocates
// nothing.
func sortAffinityEdges(es []AffinityEdge) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i - 1
		for j >= 0 && affinityEdgeLess(e, es[j]) {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = e
	}
}

func affinityEdgeLess(a, b AffinityEdge) bool {
	if a.W != b.W {
		return a.W > b.W
	}
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// placeAffinity is the allocation-free body of PlaceGroupsWithAffinity.
// edges must already be sorted (sortAffinityEdges) and reference indices in
// [0, len(weights)); parent/cw/roots/out have length len(weights), load has
// length workers. Clusters are union-find trees whose root is always the
// smallest member index, which makes the cluster ordering (and therefore the
// whole assignment) independent of edge-list construction order.
func placeAffinity(weights []float64, edges []AffinityEdge, workers int,
	parent []int32, cw, load []float64, roots, out []int32) {
	k := len(weights)
	total := 0.0
	for i := 0; i < k; i++ {
		parent[i] = int32(i)
		cw[i] = weights[i]
		total += weights[i]
	}
	bound := total / float64(workers) * affinitySlack
	for _, e := range edges {
		ra, rb := affFind(parent, e.A), affFind(parent, e.B)
		if ra == rb {
			continue
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		if cw[ra]+cw[rb] > bound {
			continue
		}
		parent[rb] = ra
		cw[ra] += cw[rb]
	}
	nr := 0
	for i := int32(0); i < int32(k); i++ {
		if affFind(parent, i) == i {
			roots[nr] = i
			nr++
		}
	}
	// Insertion sort clusters by (weight desc, root asc), then deal each to
	// the least-loaded worker — LPT over clusters instead of single groups.
	rs := roots[:nr]
	for i := 1; i < len(rs); i++ {
		r := rs[i]
		j := i - 1
		for j >= 0 && (cw[rs[j]] < cw[r] || (cw[rs[j]] == cw[r] && rs[j] > r)) {
			rs[j+1] = rs[j]
			j--
		}
		rs[j+1] = r
	}
	for i := range load {
		load[i] = 0
	}
	for _, rt := range rs {
		best := 0
		for w := 1; w < len(load); w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		out[rt] = int32(best)
		load[best] += cw[rt]
	}
	for i := int32(0); i < int32(k); i++ {
		out[i] = out[affFind(parent, i)]
	}
}

// affFind resolves a union-find root with path halving.
func affFind(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// placeLPT is the allocation-free body of PlaceGroups: callers provide the
// order/load/out scratch (lengths len(weights), workers, len(weights)).
func placeLPT(weights []float64, order []int32, load []float64, out []int32) {
	for i := range order {
		order[i] = int32(i)
	}
	// Insertion sort by (weight desc, id asc): group counts are small and
	// the slice is nearly sorted across windows, so this beats sort.Sort
	// and allocates nothing.
	for i := 1; i < len(order); i++ {
		g := order[i]
		j := i - 1
		for j >= 0 && (weights[order[j]] < weights[g] ||
			(weights[order[j]] == weights[g] && order[j] > g)) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = g
	}
	for i := range load {
		load[i] = 0
	}
	for _, g := range order {
		best := 0
		for w := 1; w < len(load); w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		out[g] = int32(best)
		load[best] += weights[g]
	}
}
