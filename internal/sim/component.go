// The Component model: every piece of simulated hardware — a host socket
// with its DIMMs, a fabric switch with its buffer, a CXL memory expander
// with its DRAM controller, a numasim memory node — is a Component living in
// a placement group. A group owns one Engine and is the unit the sharded
// coordinator schedules onto worker shards; components in the same group may
// share state and call each other directly, components in different groups
// interact only through mailbox messages. Because each group's event stream
// is confined to its own engine and cross-group messages are delivered in a
// placement-independent order, WHERE a group runs is a pure scheduling
// decision: results are byte-identical for every placement and worker count.
// Cross-group bookkeeping between windows belongs to the one barrier the
// engine's owner installs (ShardedEngine.SetBarrier).
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

	// CostWeight is the component's static relative execution cost,
	// including any state it drives through shared memory (a DRAM
	// controller's channels). Group weights (the sum over a group's
	// components) are what the placement policy balances, once, at the
	// first Run.
	CostWeight() float64
}

// ComponentBase provides stored group/weight fields, so concrete components
// only implement HandleMsg.
type ComponentBase struct {
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
