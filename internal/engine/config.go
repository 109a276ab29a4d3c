// Package engine assembles complete simulated systems — hosts, FlexBus
// links, fabric switches, CXL memory devices, local DRAM, tiered page
// management — and drives DLRM SLS traces through one of the paper's five
// schemes: Pond, Pond+PM, BEACON(-S), RecNMP, and PIFS-Rec (§VI-B). Every
// figure-reproducing benchmark is a thin sweep over engine.Run.
package engine

import (
	"fmt"
	"math"

	"pifsrec/internal/dlrm"
	"pifsrec/internal/fault"
	"pifsrec/internal/osb"
	"pifsrec/internal/scenario"
	"pifsrec/internal/sim"
	"pifsrec/internal/trace"
)

// Scheme selects the system organization under test.
type Scheme string

// The evaluated schemes (§VI-B).
const (
	// Pond: CXL memory pooling with host-side SLS; every pooled row crosses
	// the host FlexBus.
	Pond Scheme = "Pond"
	// PondPM: Pond plus this paper's page-management software (the
	// "Pond + PM" baseline isolating the software contribution).
	PondPM Scheme = "Pond+PM"
	// BEACON: the BEACON-S variant — in-switch accumulation but CXL-only
	// placement, custom-instruction translation overhead, no on-switch
	// buffer, no page management, single switch.
	BEACON Scheme = "BEACON"
	// RecNMP: DIMM-side near-memory SLS on local DRAM with rank-level
	// parallelism and a DIMM cache; CXL-resident rows fall back to the
	// host-centric path.
	RecNMP Scheme = "RecNMP"
	// PIFSRec: the paper's full design.
	PIFSRec Scheme = "PIFS-Rec"
)

// Schemes returns all five in the paper's legend order.
func Schemes() []Scheme { return []Scheme{Pond, PondPM, BEACON, RecNMP, PIFSRec} }

// Config describes one simulation run.
type Config struct {
	Scheme Scheme
	Model  dlrm.ModelConfig
	// Trace is excluded from the JSON form: the distributed-sweep wire
	// (harness.EncodeJob) carries the config JSON only, and the lease names
	// the trace by its content hash. A worker fetches the trace's PIFSTRC1
	// bytes from the coordinator once and keeps it for later leases.
	Trace *trace.Trace `json:"-"`

	// Devices is the number of CXL Type 3 memory devices (default 4, the
	// paper's default; Fig 12(c) sweeps 2..16).
	Devices int
	// Switches is the fabric-switch count (default 1; Fig 13(c) sweeps to
	// 32). Only PIFS-Rec supports >1: the other schemes predate multi-
	// switch forwarding.
	Switches int
	// Hosts is the number of concurrent hosts (default 1; Fig 14 sweeps).
	Hosts int

	// Shards is the number of parallel engine workers the simulation runs
	// on (default 1). Hosts, switches, and devices are component groups,
	// placed onto workers once, at the start of the run, by greedy
	// cost-balanced bin-packing over their static weights (sim.PlaceGroups),
	// and they advance in conservative time windows bounded by the minimum
	// CXL link latency, so a big configuration scales across cores. Results
	// are byte-identical at every shard count and under every placement the
	// engine tests force.
	Shards int

	// LocalFraction is the share of the embedding footprint that fits in
	// local DRAM (stand-in for the paper's fixed 128 GB against multi-TB
	// models). Default 0.125.
	LocalFraction float64

	// BufferBytes / BufferPolicy configure the on-switch buffer for schemes
	// that have one (PIFS-Rec default 512 KB HTR, §VI-C).
	BufferBytes  int
	BufferPolicy osb.Policy

	// ColdAgeThreshold and MigrateThreshold tune page management sweeps
	// (Fig 13(a)/(d)); zero means paper defaults.
	ColdAgeThreshold float64
	MigrateThreshold float64
	// CacheLineMigration selects §IV-B4's migration path (PIFS-Rec default
	// true; page-block used for the Fig 13 cost comparison).
	PageBlockMigration bool

	// HostParallelism is the number of SLS bags each host keeps in flight
	// (batch threading across cores). Default 8.
	HostParallelism int
	// EpochBags is the page-management epoch length in completed bags.
	// Default 64.
	EpochBags int

	// Ablation overrides (Fig 12(e)): valid with Scheme == PIFSRec.
	DisableOoO bool
	DisablePM  bool
	DisableOSB bool

	// TPPPolicy switches page management to the TPP baseline (Fig 13(d)).
	TPPPolicy bool

	// Faults is an optional fault-injection plan (see internal/fault). Nil
	// — or a plan with no events — runs the byte-identical fault-free
	// protocol; a non-empty plan is validated against the assembled
	// topology and arms the switches' timeout/retry machinery.
	Faults *fault.Plan

	// Scenario is an optional open-loop arrival process (see
	// internal/scenario). Nil — or an empty spec — runs the byte-identical
	// closed loop; a non-empty spec assigns every bag a deterministic
	// arrival time, injects it as a calendar event on its host, and tracks
	// arrival→completion latency into Result.Latency.
	Scenario *scenario.Spec

	Seed uint64
}

// ComponentGroups returns the number of placement groups the configuration
// assembles — hosts + switches + devices after defaulting — which is the
// largest Shards value that buys any parallelism. The pifssim CLI rejects
// requests outside [1, ComponentGroups].
func (c Config) ComponentGroups() int {
	h, s, d := defaultCounts(c.Hosts, c.Switches, c.Devices)
	return h + s + d
}

// defaultCounts resolves zero host/switch/device counts to their defaults —
// the single source fillDefaults and ComponentGroups share, so the shard
// bound can be computed without a full, trace-bearing config.
func defaultCounts(hosts, switches, devices int) (h, s, d int) {
	h, s, d = hosts, switches, devices
	if h == 0 {
		h = 1
	}
	if s == 0 {
		s = 1
	}
	if d == 0 {
		d = 4
	}
	return h, s, d
}

// fillDefaults resolves zero values and scheme-implied settings.
func (c *Config) fillDefaults() error {
	if c.Trace == nil {
		return fmt.Errorf("engine: config without a trace")
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	switch c.Scheme {
	case Pond, PondPM, BEACON, RecNMP, PIFSRec:
	default:
		return fmt.Errorf("engine: unknown scheme %q", c.Scheme)
	}
	for _, n := range []struct {
		field string
		v     int
	}{{"Hosts", c.Hosts}, {"Switches", c.Switches}, {"Devices", c.Devices}, {"BufferBytes", c.BufferBytes}} {
		if n.v < 0 {
			return fmt.Errorf("engine: negative %s %d", n.field, n.v)
		}
	}
	c.Hosts, c.Switches, c.Devices = defaultCounts(c.Hosts, c.Switches, c.Devices)
	if c.Switches > 1 && c.Scheme != PIFSRec {
		return fmt.Errorf("engine: scheme %s does not support %d switches", c.Scheme, c.Switches)
	}
	if c.Switches > c.Devices {
		return fmt.Errorf("engine: %d switches need at least as many devices, got %d", c.Switches, c.Devices)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 0 {
		return fmt.Errorf("engine: negative shard count %d", c.Shards)
	}
	if c.LocalFraction == 0 {
		c.LocalFraction = 0.125
	}
	if !(c.LocalFraction >= 0 && c.LocalFraction < 1) {
		return fmt.Errorf("engine: LocalFraction %v outside [0,1)", c.LocalFraction)
	}
	for _, thr := range []float64{c.ColdAgeThreshold, c.MigrateThreshold} {
		if math.IsNaN(thr) || math.IsInf(thr, 0) {
			return fmt.Errorf("engine: page-management threshold %v is not finite", thr)
		}
	}
	if c.HostParallelism == 0 {
		// Deep enough that the run is bandwidth-bound, the regime the
		// paper's batch-1024 workloads operate in, rather than latency-
		// bound on individual CXL round trips.
		c.HostParallelism = 48
	}
	if c.HostParallelism < 1 {
		return fmt.Errorf("engine: HostParallelism %d is below 1", c.HostParallelism)
	}
	if c.HostParallelism >= 64 {
		return fmt.Errorf("engine: HostParallelism %d exceeds the 6-bit sumtag space", c.HostParallelism)
	}
	if c.EpochBags == 0 {
		c.EpochBags = 64
	}
	if c.EpochBags < 1 {
		return fmt.Errorf("engine: EpochBags %d is below 1", c.EpochBags)
	}
	if c.BufferPolicy == "" {
		c.BufferPolicy = osb.HTR
	}
	if c.Scheme == PIFSRec && c.BufferBytes == 0 && !c.DisableOSB {
		c.BufferBytes = 512 << 10 // paper default 512 KB
	}
	if c.Scheme == PIFSRec && !c.DisableOSB && c.BufferBytes > 0 {
		// Each switch builds this buffer with osb.New, which panics on what
		// osb.Validate rejects.
		if err := osb.Validate(c.BufferBytes, c.BufferPolicy); err != nil {
			return fmt.Errorf("engine: on-switch buffer BufferBytes %d, BufferPolicy %q: %w", c.BufferBytes, c.BufferPolicy, err)
		}
	}
	if c.Scheme != PIFSRec && c.Scheme != RecNMP {
		c.BufferBytes = 0
	}
	if c.Trace.Tables != c.Model.Tables || c.Trace.RowsPerTable != c.Model.EmbRows {
		return fmt.Errorf("engine: trace shape (%d tables × %d rows) does not match model (%d × %d)",
			c.Trace.Tables, c.Trace.RowsPerTable, c.Model.Tables, c.Model.EmbRows)
	}
	// PIFSTRC1 admits bags with no indices, but an SLS bag must read at
	// least one row.
	for i := range c.Trace.Bags {
		if len(c.Trace.Bags[i].Indices) == 0 {
			return fmt.Errorf("engine: trace bag %d has no indices", i)
		}
	}
	if c.Faults != nil {
		if c.Faults.Empty() {
			// An empty plan IS the no-fault plan; drop it so the engine runs
			// the byte-identical plain protocol.
			c.Faults = nil
		} else if err := c.Faults.Validate(FaultTopology(*c)); err != nil {
			return err
		}
	}
	if c.Scenario != nil {
		if c.Scenario.Empty() {
			// An empty spec IS the no-scenario spec; drop it so the engine
			// runs the byte-identical closed loop (and hashes identically).
			c.Scenario = nil
		} else {
			// Replace the pointer with a normalized copy instead of mutating
			// the caller's spec in place.
			norm, err := c.Scenario.Normalized()
			if err != nil {
				return err
			}
			c.Scenario = &norm
		}
	}
	return nil
}

// Result is what one run produced.
type Result struct {
	Scheme  Scheme
	TotalNS sim.Tick
	Bags    int
	// NSPerBag is the mean SLS operator latency the figures compare.
	NSPerBag float64

	HostLinkDownBytes int64
	HostLinkUpBytes   int64
	LocalDRAMReads    int64
	// MeanQueueDelayNS is the mean time a DRAM line request waited in a
	// channel queue before its column command issued, aggregated over every
	// controller in the system (host DIMMs and CXL devices).
	MeanQueueDelayNS  float64
	DeviceReads       []int64 // per CXL device
	BufferHitRatio    float64
	BufferHits        int64
	MigrationStallNS  int64
	PagesMigrated     int
	CoreTagSwitches   int64
	CoreInOrderStalls int64
	LocalShare        float64 // fraction of row accesses served locally
	DeviceAccessStd   float64
	DeviceAccessMean  float64

	// Fault-degradation accounting (all zero without a fault plan).
	FaultTimeouts     int64   // device reads whose reply timer expired
	FaultRetries      int64   // timed-out reads re-issued with backoff
	AbortedRows       int64   // reads abandoned after the retry budget
	StaleReplies      int64   // late replies dropped by the generation check
	DeviceDropped     int64   // requests discarded by failed devices
	ReroutedRows      int64   // rows served from host DRAM while their switch was down
	LinkFaultStallNS  int64   // transfer time lost to link-flap windows
	AbortedBags       int     // bags that completed degraded
	DegradedFraction  float64 // share of the run inside any fault window
	GoodputBagsPerSec float64 // non-degraded bags per simulated second

	// Latency is the open-loop tail-latency report (zero without a
	// scenario). Unlike Sched it IS shard-count- and placement-invariant —
	// arrival times are precomputed from the spec and per-host sketches
	// merge in host order with an exactly-associative Merge — so it is
	// cached, served, and compared like any other result field.
	Latency scenario.LatencyReport

	// Sched is the run's scheduling-quality report (cross-shard envelopes,
	// windows run/elided, per-worker fired share). Deterministic for a fixed
	// (config, shards, placement) but NOT shard-count-invariant: invariance
	// comparisons and the memo cache zero it before use.
	Sched sim.SchedStats
}

// String summarizes a result.
func (r Result) String() string {
	return fmt.Sprintf("%s: %d bags in %.3f ms (%.0f ns/bag, local %.0f%%, buffer %.1f%%)",
		r.Scheme, r.Bags, float64(r.TotalNS)/1e6, r.NSPerBag, r.LocalShare*100, r.BufferHitRatio*100)
}
