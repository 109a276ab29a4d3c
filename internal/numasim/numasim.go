// Package numasim models the paper's characterization platform (§III,
// Fig 3): a dual-socket server whose remote socket is reachable over an
// inter-socket interconnect, plus a CXL memory expander on FlexBus. It is an
// analytic bandwidth/latency model — deliberately simpler than the
// event-driven engine — used to regenerate the motivation figures: Fig 5's
// normalized application bandwidth under remote-socket vs CXL vs interleaved
// placement with batch/table threading, and Fig 6's DIMM/CXL bandwidth
// split.
package numasim

import (
	"fmt"
	"math"
)

// Platform mirrors the experiment testbed of §III: dual AMD Genoa sockets
// with 12 channels of DDR5-4800 each, and 4 channels of DDR4 CXL memory.
type Platform struct {
	// LocalGBs is the local socket's memory bandwidth.
	LocalGBs float64
	// RemoteGBs is the remote socket's memory bandwidth (full population).
	RemoteGBs float64
	// InterconnectGBs caps traffic crossing between the sockets.
	InterconnectGBs float64
	// CXLGBs is the CXL expander bandwidth (DDR4 over FlexBus).
	CXLGBs float64
	// LocalLatNS / RemoteLatNS / CXLLatNS are unloaded access latencies.
	LocalLatNS  float64
	RemoteLatNS float64
	CXLLatNS    float64
}

// Genoa returns the platform of Fig 3: 12 x DDR5-4800 per socket
// (~460 GB/s), xGMI-class inter-socket links, and a 4-channel DDR4 CXL
// expander behind a x16 FlexBus (link-capped at 64 GB/s).
func Genoa() Platform {
	return Platform{
		LocalGBs:        460,
		RemoteGBs:       460,
		InterconnectGBs: 96,
		CXLGBs:          50, // 4ch DDR4-3200 behind the FlexBus, minus protocol overhead
		LocalLatNS:      90,
		RemoteLatNS:     140,
		CXLLatNS:        190, // local + ~100 ns CXL penalty (Table II)
	}
}

// Threading selects the parallelization of Fig 4.
type Threading string

// The two parallelization strategies of Fig 4.
const (
	// BatchThreading assigns each batch to a core; every thread touches
	// every table, so traffic spreads evenly over all placements.
	BatchThreading Threading = "batch"
	// TableThreading assigns each table to a core; threads working on
	// tables in slow tiers straggle, and the batch completes with them.
	TableThreading Threading = "table"
)

// Workload describes one characterization run.
type Workload struct {
	Threads   int
	EmbDim    int   // bytes per embedding vector (16..128 in Fig 5)
	TableSize int64 // embeddings per table (16K..1024K on the x axis)
	Tables    int
	BatchSize int
	Threading Threading
	// RemoteShare is the fraction of the working set on the slow tier
	// (remote socket or CXL); Fig 5 uses 0.2.
	RemoteShare float64
}

// DefaultWorkload returns the §III configuration: 192 tables, batch 1024.
func DefaultWorkload(threading Threading, embDim int, tableSize int64) Workload {
	return Workload{
		Threads:     96,
		EmbDim:      embDim,
		TableSize:   tableSize,
		Tables:      192,
		BatchSize:   1024,
		Threading:   threading,
		RemoteShare: 0.2,
	}
}

// Validate reports configuration errors.
func (w Workload) Validate() error {
	if w.Threads <= 0 || w.EmbDim <= 0 || w.TableSize <= 0 || w.Tables <= 0 || w.BatchSize <= 0 {
		return fmt.Errorf("numasim: workload fields must be positive: %+v", w)
	}
	if w.RemoteShare < 0 || w.RemoteShare > 1 {
		return fmt.Errorf("numasim: RemoteShare %v outside [0,1]", w.RemoteShare)
	}
	switch w.Threading {
	case BatchThreading, TableThreading:
	default:
		return fmt.Errorf("numasim: unknown threading %q", w.Threading)
	}
	return nil
}

// Placement selects where the slow share of the working set lives.
type Placement string

// Placements compared in Fig 5.
const (
	// AllLocal keeps the entire working set on the local socket.
	AllLocal Placement = "local"
	// RemoteSocket puts RemoteShare of the set on the other socket.
	RemoteSocket Placement = "remote"
	// CXLExpander puts RemoteShare of the set on the CXL device.
	CXLExpander Placement = "cxl"
	// CXLOnly puts the whole set on the CXL device — the baseline the
	// paper normalizes Fig 5 (e)-(f) against ("9x performance increase
	// over configurations where all memory is allocated to the CXL").
	CXLOnly Placement = "cxl-only"
	// InterleaveCXL adds the CXL device as a parallel bandwidth source
	// (software interleaving, Fig 5 (e)-(f)).
	InterleaveCXL Placement = "interleave"
)

// demandGBs estimates the workload's offered memory traffic if nothing
// stalled: concurrency scales with threads and vector width until the core's
// load machinery saturates.
func (w Workload) demandGBs() float64 {
	// Each thread sustains roughly one 64 B line per 4 ns when streaming
	// embedding rows (pointer-chasing softens this for small dims).
	perThread := 16.0 * float64(w.EmbDim) / (float64(w.EmbDim) + 16.0)
	return float64(w.Threads) * perThread
}

// footprintScale captures capacity pressure: as the working set grows past
// the L3, cache hit rates collapse and an increasing share of accesses
// reach DRAM. Smaller tables get a bonus from caches; the transition is
// logarithmic in footprint.
func (w Workload) footprintScale() float64 {
	bytes := float64(w.TableSize) * float64(w.EmbDim) * float64(w.Tables)
	cache := 384e6 // L3 across CCDs
	ratio := bytes / cache
	if ratio <= 1 {
		return 0.35
	}
	scale := 0.35 + 0.2*math.Log2(ratio)
	if scale > 1 {
		return 1
	}
	return scale
}

// Result is the modeled bandwidth outcome.
type Result struct {
	// AppGBs is the application-visible aggregate bandwidth.
	AppGBs float64
	// LocalGBs / SlowGBs split AppGBs by serving tier (Fig 6's stack).
	LocalGBs float64
	SlowGBs  float64
	// AvgLatNS is the traffic-weighted access latency.
	AvgLatNS float64
}

// tierPlan is the resolved service model of one (platform, workload,
// placement) triple, shared by the closed form and the event-driven model:
// the offered demand, the slow-tier share, and the slow tier's effective
// service rate after the partial-population, congestion, and
// latency-limited-concurrency adjustments.
type tierPlan struct {
	demand    float64 // offered app traffic, B/ns, after footprint scaling
	slowShare float64
	slowServ  float64 // slow tier effective service rate
	slowLat   float64
	hasHop    bool // remote socket: traffic crosses the inter-socket hop
}

// resolvePlan validates the run and computes the shared tier parameters.
func resolvePlan(p Platform, w Workload, place Placement) (tierPlan, error) {
	if err := w.Validate(); err != nil {
		return tierPlan{}, err
	}
	demand := w.demandGBs() * w.footprintScale()

	slowShare := w.RemoteShare
	switch place {
	case AllLocal:
		slowShare = 0
	case CXLOnly:
		slowShare = 1
	}

	var slowCap, slowLat float64
	hasHop := false
	switch place {
	case AllLocal:
		slowCap, slowLat = 0, 0
	case RemoteSocket:
		// Partial channel population: touching slowShare of the set only
		// activates that fraction of the remote socket's channels, and
		// misaligned interleaving across the partially-hit channels halves
		// their efficiency (§III); the inter-socket link caps the rest.
		slowCap = math.Min(p.RemoteGBs*math.Max(w.RemoteShare, 0.1)*0.5, p.InterconnectGBs)
		slowLat = p.RemoteLatNS
		hasHop = true
	case CXLExpander, InterleaveCXL, CXLOnly:
		slowCap = p.CXLGBs
		slowLat = p.CXLLatNS
	default:
		return tierPlan{}, fmt.Errorf("numasim: unknown placement %q", place)
	}

	slowDemand := demand * slowShare

	// Congestion: once offered slow-tier traffic exceeds its capacity,
	// queueing wastes part of the service (flex-bus congestion under heavy
	// memory traffic, §III).
	slowServ := slowCap
	if slowShare > 0 && slowDemand > slowCap && slowCap > 0 {
		c := slowCap / slowDemand
		slowServ = slowCap * (0.5 + 0.5*c)
	}
	// Latency-limited concurrency: higher access latency sustains fewer
	// outstanding misses per thread.
	if slowShare > 0 && slowLat > 0 {
		mlp := p.LocalLatNS / slowLat
		if byMLP := demand * mlp * slowShare; byMLP < slowServ {
			slowServ = byMLP
		}
	}
	return tierPlan{demand: demand, slowShare: slowShare, slowServ: slowServ,
		slowLat: slowLat, hasHop: hasHop}, nil
}

// Run evaluates a workload under a placement on a platform with the
// closed-form analytic model (see RunModel for the event-driven
// alternative).
//
// Batch threading is bulk-synchronous: every thread touches both tiers each
// batch, so the run alternates a local phase and a slow phase and the slow
// tier's service rate gates everything (local channels idle while remote
// stragglers finish). Table threading pins threads to tables, so the two
// tiers progress independently and their bandwidths add.
func Run(p Platform, w Workload, place Placement) (Result, error) {
	tp, err := resolvePlan(p, w, place)
	if err != nil {
		return Result{}, err
	}
	demand, slowShare, slowServ := tp.demand, tp.slowShare, tp.slowServ
	localCap := math.Min(demand, p.LocalGBs)

	var local, slow float64
	switch {
	case slowShare == 0:
		local = localCap
	case w.Threading == BatchThreading:
		// Serial phases: time per unit of data = (1-s)/local + s/slow.
		tot := 1.0 / ((1-slowShare)/localCap + slowShare/slowServ)
		local = tot * (1 - slowShare)
		slow = tot * slowShare
	default: // TableThreading: tiers progress independently
		local = math.Min(demand*(1-slowShare), p.LocalGBs)
		slow = math.Min(demand*slowShare, slowServ)
	}

	res := Result{LocalGBs: local, SlowGBs: slow}
	res.AppGBs = local + slow
	if res.AppGBs > 0 {
		res.AvgLatNS = (local*p.LocalLatNS + slow*tp.slowLat) / res.AppGBs
	}
	return res, nil
}

// Fig5TableSizes is the x axis of Fig 5 (embeddings per table).
func Fig5TableSizes() []int64 {
	return []int64{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1024 << 10}
}

// Fig6Config is one x-axis group of Fig 6: a thread count and embedding
// dimension.
type Fig6Config struct {
	Threads int
	EmbDim  int
}

// Fig6Configs returns the paper's five groups.
func Fig6Configs() []Fig6Config {
	return []Fig6Config{{16, 32}, {16, 64}, {16, 128}, {32, 32}, {32, 64}}
}

// Fig6Workload is the workload behind one Fig 6 group: the Fig 5 default at
// 512K rows with the group's thread count and a 20% slow-tier share. The
// harness builds its Fig 6 job list from it.
func Fig6Workload(c Fig6Config) Workload {
	w := DefaultWorkload(BatchThreading, c.EmbDim, 512<<10)
	w.Threads = c.Threads
	w.RemoteShare = 0.2
	return w
}
