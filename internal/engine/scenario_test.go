package engine

import (
	"path/filepath"
	"reflect"
	"testing"

	"pifsrec/internal/scenario"
	"pifsrec/internal/trace"
)

// openLoopBase returns a multi-switch, multi-host configuration (the same
// shape as the affinity gate's) plus its measured closed-loop capacity in
// bags per second — the natural unit for picking open-loop rates that sit
// below or above the knee without hard-coding this machine's service times.
func openLoopBase(t *testing.T) (Config, float64) {
	t.Helper()
	m := testModel()
	tr := testTrace(t, trace.MetaLike, m, 2)
	cfg := Config{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3,
		Switches: 2, Devices: 8, Hosts: 2, HostParallelism: 8}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalNS == 0 {
		t.Fatal("closed-loop probe ran in zero time")
	}
	return cfg, float64(r.Bags) / float64(r.TotalNS) * 1e9
}

func TestOpenLoopScenarioSmoke(t *testing.T) {
	cfg, capQPS := openLoopBase(t)
	cfg.Scenario = &scenario.Spec{Kind: scenario.Poisson, QPS: 0.5 * capQPS, Seed: 9}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lat := r.Latency
	if lat.Requests != int64(r.Bags) || lat.Requests != int64(len(cfg.Trace.Bags)) {
		t.Fatalf("latency tracked %d requests, ran %d bags of %d",
			lat.Requests, r.Bags, len(cfg.Trace.Bags))
	}
	if lat.MeanNS <= 0 || lat.MaxNS <= 0 {
		t.Fatalf("degenerate latency stats: %+v", lat)
	}
	qs := []int64{lat.P50NS, lat.P95NS, lat.P99NS, lat.P999NS, lat.MaxNS}
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			t.Fatalf("quantiles out of order: %v", qs)
		}
	}
	if lat.OfferedQPS != cfg.Scenario.QPS {
		t.Fatalf("offered %v, configured %v", lat.OfferedQPS, cfg.Scenario.QPS)
	}
	// No SLO: every (non-degraded) completion counts, and there are no
	// faults to degrade any.
	if lat.SLONS != 0 || lat.WithinSLO != lat.Requests || lat.GoodputQPS <= 0 {
		t.Fatalf("SLO accounting wrong without an SLO: %+v", lat)
	}
}

// TestOpenLoopTailGrowsWithLoad is the knee in miniature: the same system
// at 0.3x and 3x its closed-loop capacity must show a strictly higher p99
// when overloaded — under open-loop arrivals the queue grows without bound
// past the knee, which is exactly what the closed loop could never show.
func TestOpenLoopTailGrowsWithLoad(t *testing.T) {
	cfg, capQPS := openLoopBase(t)
	p99 := func(qps float64) int64 {
		c := cfg
		c.Scenario = &scenario.Spec{Kind: scenario.Poisson, QPS: qps, Seed: 9}
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return r.Latency.P99NS
	}
	lo, hi := p99(0.3*capQPS), p99(3*capQPS)
	if hi <= lo {
		t.Fatalf("p99 did not grow with load: %d ns at 0.3x capacity, %d ns at 3x", lo, hi)
	}
}

// TestScenarioDeterminismProperty is the scenario-determinism gate: for
// every generator kind, identical specs produce byte-identical latency
// tables (the full Result modulo Sched) across shard counts 1/2/4, every
// placement policy and dynamic mode, and elision on/off. Arrival times are
// precomputed from the spec before any sharding decision, completions are
// shard-invariant by the engine's standing contract, and per-host sketches
// merge in host order — this test is the proof.
func TestScenarioDeterminismProperty(t *testing.T) {
	cfg, capQPS := openLoopBase(t)
	tmp := t.TempDir()
	arrPath := filepath.Join(tmp, "arrivals.trc")
	if err := cfg.Trace.Save(arrPath); err != nil {
		t.Fatal(err)
	}
	specs := []scenario.Spec{
		{Kind: scenario.Poisson, QPS: 0.8 * capQPS, SLONS: 50_000, Seed: 9},
		{Kind: scenario.Diurnal, QPS: 0.8 * capQPS, Swing: 0.9, PeriodNS: 100_000, Seed: 9},
		{Kind: scenario.Trace, QPS: 0.8 * capQPS, ArrivalTracePath: arrPath},
	}
	for _, sp := range specs {
		sp := sp
		t.Run(string(sp.Kind), func(t *testing.T) {
			base := cfg
			base.Scenario = &sp
			want, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			if want.Latency.Requests != int64(len(cfg.Trace.Bags)) {
				t.Fatalf("base run tracked %d of %d requests",
					want.Latency.Requests, len(cfg.Trace.Bags))
			}
			for _, shards := range []int{1, 2, 4} {
				for _, pol := range placementPolicies() {
					c := base
					c.Shards = shards
					c.Placement = pol.policy
					got, err := Run(c)
					if err != nil {
						t.Fatalf("shards=%d policy=%s: %v", shards, pol.name, err)
					}
					if !reflect.DeepEqual(noSched(got), noSched(want)) {
						t.Fatalf("shards=%d policy=%s: latency table diverged:\n got %+v\nwant %+v",
							shards, pol.name, got.Latency, want.Latency)
					}
				}
				for _, mode := range []string{"affinity", "weight"} {
					for _, noElide := range []bool{false, true} {
						c := base
						c.Shards = shards
						c.PlacementMode = mode
						c.DisableBarrierElision = noElide
						got, err := Run(c)
						if err != nil {
							t.Fatalf("shards=%d mode=%s elide-off=%v: %v", shards, mode, noElide, err)
						}
						if !reflect.DeepEqual(noSched(got), noSched(want)) {
							t.Fatalf("shards=%d mode=%s elide-off=%v: latency table diverged:\n got %+v\nwant %+v",
								shards, mode, noElide, got.Latency, want.Latency)
						}
					}
				}
			}
		})
	}
}

// TestZeroScenarioMatchesNil pins the nil-parity fix the fault layer set
// the precedent for: a present-but-empty scenario spec is the no-scenario
// config, bit for bit, for every scheme — fillDefaults drops it before the
// engine ever sees it.
func TestZeroScenarioMatchesNil(t *testing.T) {
	m := testModel()
	tr := testTrace(t, trace.MetaLike, m, 1)
	for _, s := range Schemes() {
		cfg := Config{Scheme: s, Model: m, Trace: tr, Seed: 3}
		base, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		empty := cfg
		empty.Scenario = &scenario.Spec{}
		r, err := Run(empty)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, r) {
			t.Fatalf("%s: empty scenario diverged from nil:\n got %+v\nwant %+v", s, r, base)
		}
		if r.Latency != (scenario.LatencyReport{}) {
			t.Fatalf("%s: closed loop produced a latency report: %+v", s, r.Latency)
		}
	}
}

// TestScenarioRejectsInvalidSpec checks fail-fast validation through Run.
func TestScenarioRejectsInvalidSpec(t *testing.T) {
	m := testModel()
	tr := testTrace(t, trace.MetaLike, m, 1)
	bad := []scenario.Spec{
		{Kind: "bursty", QPS: 1e6},
		{Kind: scenario.Poisson, QPS: 0},
		{Kind: scenario.Poisson, QPS: -5},
		{Kind: scenario.Poisson, QPS: 1e6, SLONS: -1},
		{Kind: scenario.Diurnal, QPS: 1e6, Swing: 1.5},
		{Kind: scenario.Trace, QPS: 1e6}, // no arrival_trace
	}
	for _, sp := range bad {
		sp := sp
		cfg := Config{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3, Scenario: &sp}
		if _, err := Run(cfg); err == nil {
			t.Fatalf("Run accepted invalid spec %+v", sp)
		}
	}
}

// TestScenarioWithFaults runs open-loop injection and fault injection
// together: aborted bags must not count toward goodput, and the combination
// must stay deterministic.
func TestScenarioWithFaults(t *testing.T) {
	cfg, capQPS := openLoopBase(t)
	cfg.Scenario = &scenario.Spec{Kind: scenario.Poisson, QPS: 0.8 * capQPS, SLONS: 100_000, Seed: 9}
	cfg.Faults = handPlan(int64(faultProbe(t, cfg).TotalNS))
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(noSched(a), noSched(b)) {
		t.Fatalf("scenario+faults not deterministic:\n%+v\n%+v", a.Latency, b.Latency)
	}
	if a.Latency.WithinSLO > a.Latency.Requests-int64(a.AbortedBags) {
		t.Fatalf("aborted bags leaked into goodput: withinSLO=%d requests=%d aborted=%d",
			a.Latency.WithinSLO, a.Latency.Requests, a.AbortedBags)
	}
}
