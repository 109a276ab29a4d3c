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

import "sort"

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
	// weights (the sum over a group's components) are what the placement
	// policy balances, once, at the first Run.
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
// whole barrier sequence (exchange, hooks, barrier).
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
// weights[g] is group g's static weight. Policies are pure scheduling: any
// total function onto [0, workers) yields byte-identical simulation results
// (the placement-independence property tests pin this).
type PlacementPolicy func(weights []float64, workers int) []int32

// PlaceGroups is the default policy: greedy cost-balanced bin-packing
// (longest-processing-time): groups sorted by descending weight (ties by
// ascending group id) are dealt to the least-loaded worker (ties to the
// lowest worker index). The assignment is deterministic in (weights,
// workers).
func PlaceGroups(weights []float64, workers int) []int32 {
	order := make([]int32, len(weights))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if weights[a] != weights[b] {
			return weights[a] > weights[b]
		}
		return a < b
	})
	out := make([]int32, len(weights))
	load := make([]float64, workers)
	for _, g := range order {
		best := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		out[g] = int32(best)
		load[best] += weights[g]
	}
	return out
}
