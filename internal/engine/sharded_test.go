package engine

// Shard-determinism regression tests for the conservative-time-window
// refactor: the sharded engine must produce byte-identical Results at every
// shard count — sharding is a scheduling decision, never a modelling one.

import (
	"math/rand"
	"reflect"
	"testing"

	"pifsrec/internal/dlrm"
	"pifsrec/internal/scenario"
	"pifsrec/internal/sim"
	"pifsrec/internal/trace"
)

// shardCounts covers the degenerate single shard, uneven splits, one shard
// per group class, and more shards than groups (clamped).
var shardCounts = []int{2, 3, 4, 16}

// noSched strips the scheduling-quality report before an invariance
// comparison: Sched is deterministic but deliberately NOT shard-count- or
// placement-invariant (see Result.Sched).
func noSched(r Result) Result {
	r.Sched = sim.SchedStats{}
	return r
}

// runBuilt is Run with a hook between building the system and running it:
// adjust may change how the sharded engine schedules the run, never what
// it simulates.
func runBuilt(cfg Config, adjust func(*sim.ShardedEngine)) (Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return Result{}, err
	}
	s, err := build(cfg)
	if err != nil {
		return Result{}, err
	}
	adjust(s.se)
	return s.run()
}

// runNoElide is Run with barrier elision off: it drops the barrier's idle
// predicate so no window can be proven skippable. Elision is pure
// scheduling, so the result must equal Run's in everything but Sched.
func runNoElide(cfg Config) (Result, error) {
	return runBuilt(cfg, func(se *sim.ShardedEngine) { se.SetBarrierIdle(nil) })
}

// runPlaced is Run with the groups placed by policy instead of
// sim.PlaceGroups. engine.Config has no placement field: placement is pure
// scheduling, so only the tests that prove it force one.
func runPlaced(cfg Config, policy sim.PlacementPolicy) (Result, error) {
	return runBuilt(cfg, func(se *sim.ShardedEngine) { se.SetPlacement(policy) })
}

// TestShardCountInvariantMatrix runs the full scheme x trace-kind matrix at
// every shard count and requires Results identical to the 1-shard engine.
func TestShardCountInvariantMatrix(t *testing.T) {
	m := dlrm.RMC4().Scaled(64)
	for _, kind := range trace.Kinds() {
		tr := matrixTrace(t, kind, m)
		for _, s := range Schemes() {
			cfg := Config{Scheme: s, Model: m, Trace: tr, Seed: 3}
			base, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, s, err)
			}
			for _, n := range shardCounts {
				sharded := cfg
				sharded.Shards = n
				r, err := Run(sharded)
				if err != nil {
					t.Fatalf("%s/%s shards=%d: %v", kind, s, n, err)
				}
				if !reflect.DeepEqual(noSched(base), noSched(r)) {
					t.Errorf("%s/%s: shards=%d diverged from 1-shard engine:\n  1: %#v\n  %d: %#v",
						kind, s, n, base, n, r)
				}
			}
		}
	}
}

// TestShardCountInvariantScaleOut exercises the hairiest topologies — peer
// forwarding across switches, shared fabrics, migration-heavy epochs — where
// any ordering dependence on shard placement would surface.
func TestShardCountInvariantScaleOut(t *testing.T) {
	m := dlrm.RMC4().Scaled(64)
	tr, err := trace.Generate(trace.Spec{
		Kind: trace.MetaLike, Tables: m.Tables, RowsPerTable: m.EmbRows,
		Batches: 2, BatchSize: 4, BagSize: 16, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3, Switches: 4, Devices: 8, Hosts: 4, HostParallelism: 8},
		{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3, Switches: 2, Devices: 6, Hosts: 3},
		{Scheme: Pond, Model: m, Trace: tr, Seed: 3, Hosts: 4, Devices: 8},
		{Scheme: RecNMP, Model: m, Trace: tr, Seed: 3, Hosts: 2, Devices: 4, EpochBags: 16},
		{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3, Devices: 8, EpochBags: 16, PageBlockMigration: true},
	}
	for ci, cfg := range cases {
		base, err := Run(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		for _, n := range shardCounts {
			sharded := cfg
			sharded.Shards = n
			r, err := Run(sharded)
			if err != nil {
				t.Fatalf("case %d shards=%d: %v", ci, n, err)
			}
			if !reflect.DeepEqual(noSched(base), noSched(r)) {
				t.Errorf("case %d: shards=%d diverged:\n  1: %#v\n  %d: %#v", ci, n, base, n, r)
			}
		}
	}
}

// placementPolicies returns adversarial static placements: everything on
// one worker, weights ignored in reverse deal order, and seeded random
// assignments — the shapes a placement bug would be most likely to expose.
func placementPolicies() []struct {
	name   string
	policy sim.PlacementPolicy
} {
	random := func(seed int64) sim.PlacementPolicy {
		return func(weights []float64, workers int) []int32 {
			rng := rand.New(rand.NewSource(seed))
			out := make([]int32, len(weights))
			for g := range out {
				out[g] = int32(rng.Intn(workers))
			}
			return out
		}
	}
	return []struct {
		name   string
		policy sim.PlacementPolicy
	}{
		{"all-on-one", func(weights []float64, _ int) []int32 { return make([]int32, len(weights)) }},
		{"reverse-deal", func(weights []float64, workers int) []int32 {
			out := make([]int32, len(weights))
			for g := range out {
				out[g] = int32((len(weights) - 1 - g) % workers)
			}
			return out
		}},
		{"random-7", random(7)},
		{"random-99", random(99)},
	}
}

// TestPlacementInvariantProperty is the placement-independence property
// test: the same configurations as the scale-out matrix, and every scheme
// on the default topology, run at several worker counts under every
// adversarial placement policy, must produce Results identical to the
// 1-worker cost-balanced reference. Placement is pure scheduling — any
// divergence means mid-window shared state leaked between groups.
func TestPlacementInvariantProperty(t *testing.T) {
	m := dlrm.RMC4().Scaled(64)
	tr, err := trace.Generate(trace.Spec{
		Kind: trace.MetaLike, Tables: m.Tables, RowsPerTable: m.EmbRows,
		Batches: 2, BatchSize: 4, BagSize: 16, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3, Switches: 2, Devices: 6, Hosts: 3, HostParallelism: 8},
		{Scheme: Pond, Model: m, Trace: tr, Seed: 3, Hosts: 2, Devices: 4},
		{Scheme: RecNMP, Model: m, Trace: tr, Seed: 3, Hosts: 2, Devices: 4, EpochBags: 16},
		// Open-loop injection rides the same contract: the arrival schedule
		// is computed before any sharding decision, so the latency table in
		// Result must be as placement-invariant as every other field.
		{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3, Switches: 2, Devices: 6, Hosts: 3, HostParallelism: 8,
			Scenario: &scenario.Spec{Kind: scenario.Poisson, QPS: 5e5, SLONS: 100_000, Seed: 9}},
	}
	for _, s := range Schemes() {
		cases = append(cases, Config{Scheme: s, Model: m, Trace: tr, Seed: 3})
	}
	for ci, cfg := range cases {
		base, err := Run(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		for _, n := range []int{2, 3, 4} {
			for _, pp := range placementPolicies() {
				placed := cfg
				placed.Shards = n
				r, err := runPlaced(placed, pp.policy)
				if err != nil {
					t.Fatalf("case %d shards=%d %s: %v", ci, n, pp.name, err)
				}
				if !reflect.DeepEqual(noSched(base), noSched(r)) {
					t.Errorf("case %d: shards=%d placement=%s diverged:\n  base: %#v\n  got:  %#v",
						ci, n, pp.name, base, r)
				}
			}
			// Barrier elision is pure scheduling too: with and without it,
			// the default placement must match the 1-shard reference bit for
			// bit.
			for _, noElide := range []bool{false, true} {
				variant := cfg
				variant.Shards = n
				run := Run
				if noElide {
					run = runNoElide
				}
				r, err := run(variant)
				if err != nil {
					t.Fatalf("case %d shards=%d elide=%v: %v", ci, n, !noElide, err)
				}
				if !reflect.DeepEqual(noSched(base), noSched(r)) {
					t.Errorf("case %d: shards=%d elide=%v diverged:\n  base: %#v\n  got:  %#v",
						ci, n, !noElide, base, r)
				}
				if noElide && r.Sched.WindowsElided != 0 {
					t.Errorf("case %d: shards=%d: %d windows elided with elision disabled",
						ci, n, r.Sched.WindowsElided)
				}
			}
		}
	}
}

// TestBarrierElisionFiresAndStaysInvisible checks the empty-barrier fast
// path end to end: a RecNMP run (long local-DRAM stretches between fabric
// exchanges) must elide a meaningful share of its windows, and disabling
// elision must change nothing but the counter.
func TestBarrierElisionFiresAndStaysInvisible(t *testing.T) {
	m := dlrm.RMC4().Scaled(64)
	tr, err := trace.Generate(trace.Spec{
		Kind: trace.MetaLike, Tables: m.Tables, RowsPerTable: m.EmbRows,
		Batches: 2, BatchSize: 4, BagSize: 16, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scheme: RecNMP, Model: m, Trace: tr, Seed: 3, Hosts: 2, Devices: 4, EpochBags: 16}
	elided, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if elided.Sched.WindowsElided == 0 {
		t.Errorf("RecNMP run elided no windows: %+v", elided.Sched)
	}
	full, err := runNoElide(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Sched.WindowsElided != 0 {
		t.Errorf("%d windows elided with elision disabled", full.Sched.WindowsElided)
	}
	if got, want := full.Sched.WindowsRun, elided.Sched.WindowsRun+elided.Sched.WindowsElided; got != want {
		t.Errorf("disabled run executed %d windows, want elided run's run+elided = %d", got, want)
	}
	if !reflect.DeepEqual(noSched(elided), noSched(full)) {
		t.Error("barrier elision changed the simulation result")
	}
}

// TestCostBalancedPlacementSeesWeights checks the cost model's plumbing:
// group weights accrue from components, whose weights include their DRAM
// controllers' channels, so a host group (12 DDR5 channels) weighs more
// than a device group (4 DDR4 channels).
func TestCostBalancedPlacementSeesWeights(t *testing.T) {
	m := dlrm.RMC1().Scaled(8)
	m.Tables = 4
	tr, err := trace.Generate(trace.Spec{
		Kind: trace.MetaLike, Tables: m.Tables, RowsPerTable: m.EmbRows,
		Batches: 1, BatchSize: 2, BagSize: 8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3, Shards: 2, Devices: 2}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	s, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hostW := s.se.GroupWeight(0)
	swW := s.se.GroupWeight(1)
	devW := s.se.GroupWeight(2)
	if hostW <= devW {
		t.Errorf("host group weight %.1f not above device group %.1f (12 DDR5 channels vs 4 DDR4)", hostW, devW)
	}
	if swW <= 0 || devW <= 0 {
		t.Errorf("non-positive group weights: switch %.1f device %.1f", swW, devW)
	}
}

// buildSteady assembles a system for steady-state reuse measurements and
// returns it with a repeatable workload cycle: the cycle aligns the shard
// clocks, rewinds the hosts' trace cursors, and drives the whole trace
// through again on warm arenas.
func buildSteady(t testing.TB, shards int) (*system, func()) {
	t.Helper()
	m := dlrm.RMC1().Scaled(8)
	m.Tables = 4
	tr, err := trace.Generate(trace.Spec{
		Kind: trace.MetaLike, Tables: m.Tables, RowsPerTable: m.EmbRows,
		Batches: 2, BatchSize: 4, BagSize: 32, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// DisablePM keeps placement static: epochs are no-ops, so the cycle
	// isolates dispatch and messaging (the PIFS epoch itself sorts into
	// fresh slices by design). The small buffer reaches eviction steady
	// state during warmup — while the buffer is still filling, each insert
	// legitimately grows the entry pool by one.
	cfg := Config{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3, Shards: shards,
		DisablePM: true, BufferBytes: 64 << 10}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	s, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		var end sim.Tick
		for i := 0; i < s.se.Groups(); i++ {
			if now := s.se.Group(i).Now(); now > end {
				end = now
			}
		}
		for i := 0; i < s.se.Groups(); i++ {
			s.se.Group(i).RunUntil(end)
		}
		for _, h := range s.hosts {
			h.next = 0
			// Restore the build-time tag order so every pass assigns the
			// same tag (hence the same scratch slot) to the same bag —
			// passes become true steady-state repeats.
			h.freeTags = h.freeTags[:0]
			for tag := 63; tag >= 0; tag-- {
				h.freeTags = append(h.freeTags, uint8(tag))
			}
			h.pump()
		}
		s.se.Run()
	}
	// Warm until pooled high-water marks (scratch, arenas, queue rings,
	// buffer entry pools) converge; convergence is asymptotic because each
	// pass's absolute timing differs (DRAM refresh phase, carried link and
	// accumulator occupancy), occasionally raising a high-water mark.
	for i := 0; i < 48; i++ {
		cycle()
	}
	return s, cycle
}

// TestBagDispatchSteadyStateZeroAlloc pins the zero-scratch dispatch goal:
// once arenas are warm, pushing the entire trace through runBag/execBag and
// the in-switch message protocol allocates nothing on a single shard.
func TestBagDispatchSteadyStateZeroAlloc(t *testing.T) {
	_, cycle := buildSteady(t, 1)
	if allocs := testing.AllocsPerRun(5, cycle); allocs > 0 {
		t.Errorf("steady-state bag dispatch allocates %.1f objects per trace pass, want 0", allocs)
	}
}

// TestShardedSteadyStateAllocBound allows only per-Run constants (worker
// channels on multi-core runners) at shard counts above one: allocations
// must not scale with the bag count.
func TestShardedSteadyStateAllocBound(t *testing.T) {
	s, cycle := buildSteady(t, 3)
	bags := 0
	for _, h := range s.hosts {
		bags += len(h.bags)
	}
	if allocs := testing.AllocsPerRun(5, cycle); allocs > 32 {
		t.Errorf("sharded steady-state pass allocates %.1f objects for %d bags, want O(1) <= 32", allocs, bags)
	}
}

// TestNoLeaksAfterDrain checks every pooled resource is returned once the
// queues drain: mailbox slots, switch transfer records, DRAM batch slots.
func TestNoLeaksAfterDrain(t *testing.T) {
	s, _ := buildSteady(t, 4)
	if n := s.se.PendingMessages(); n != 0 {
		t.Errorf("%d mailbox messages leaked", n)
	}
	for i, sw := range s.switches {
		if n := sw.InFlightRecords(); n != 0 {
			t.Errorf("switch %d leaked %d transfer records", i, n)
		}
	}
	for i, h := range s.hosts {
		if n := h.localDRAM.InFlightBatches(); n != 0 {
			t.Errorf("host %d leaked %d DRAM batches", i, n)
		}
		if h.outstanding != 0 {
			t.Errorf("host %d still has %d bags outstanding", i, h.outstanding)
		}
	}
}
