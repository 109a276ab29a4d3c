package engine

// Fault-injection tests: fault events are ordinary calendar events, so the
// byte-determinism contract (identical Results at every shard count and
// placement) must survive any plan — and a zero-fault plan must be
// indistinguishable, bit for bit, from no plan at all.

import (
	"reflect"
	"strings"
	"testing"

	"pifsrec/internal/dlrm"
	"pifsrec/internal/fault"
	"pifsrec/internal/trace"
)

// faultProbe runs cfg clean and returns its Result, so tests can size fault
// windows that actually overlap the run.
func faultProbe(t *testing.T, cfg Config) Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("clean probe run: %v", err)
	}
	return r
}

// handPlan builds a plan with one event of every kind, windowed inside the
// probed clean runtime so each fault really bites.
func handPlan(horizon int64) *fault.Plan {
	q := horizon / 8
	if q < 2 {
		q = 2
	}
	return &fault.Plan{Events: []fault.Event{
		{Kind: fault.LinkFlap, Target: "host0.down", AtNS: q, DurationNS: 2 * q},
		{Kind: fault.DeviceFail, Device: 0, AtNS: q, DurationNS: 3 * q},
		{Kind: fault.DeviceSlow, Device: 1, AtNS: 2 * q, DurationNS: 3 * q, ExtraNS: 300},
		{Kind: fault.DRAMOffline, Device: 2, Channel: 0, AtNS: q, DurationNS: 4 * q},
		{Kind: fault.SwitchStall, Switch: 1, AtNS: 3 * q, DurationNS: 2 * q},
	}}
}

// TestFaultDeterminismAcrossShardsAndPlacements is the tentpole property:
// with a plan covering every fault kind (both a hand-built one and a Chaos
// one), the Result is byte-identical at shard counts 1/2/4 under every
// adversarial placement policy.
func TestFaultDeterminismAcrossShardsAndPlacements(t *testing.T) {
	m := dlrm.RMC4().Scaled(64)
	tr := matrixTrace(t, trace.MetaLike, m)
	cfg := Config{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3,
		Switches: 2, Devices: 6, Hosts: 3, HostParallelism: 8}
	horizon := int64(faultProbe(t, cfg).TotalNS)

	plans := map[string]*fault.Plan{
		"hand":  handPlan(horizon),
		"chaos": fault.Chaos(11, FaultTopology(cfg), horizon),
	}
	for name, plan := range plans {
		faulted := cfg
		faulted.Faults = plan
		base, err := Run(faulted)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A plan must change something, or the property test is vacuous.
		if base.FaultRetries == 0 && base.ReroutedRows == 0 &&
			base.LinkFaultStallNS == 0 && base.DeviceDropped == 0 {
			t.Errorf("%s: plan had no observable effect; windows missed the run", name)
		}
		for _, n := range []int{2, 4} {
			for _, pp := range placementPolicies() {
				placed := faulted
				placed.Shards = n
				r, err := runPlaced(placed, pp.policy)
				if err != nil {
					t.Fatalf("%s shards=%d %s: %v", name, n, pp.name, err)
				}
				if !reflect.DeepEqual(noSched(base), noSched(r)) {
					t.Errorf("%s: shards=%d placement=%s diverged:\n  base: %#v\n  got:  %#v",
						name, n, pp.name, base, r)
				}
			}
		}
	}
}

// TestZeroFaultPlanMatchesNil pins the no-fault bit-identity gate: an empty
// plan (and one with only a retry policy) produces the exact Result of a
// nil plan for every scheme.
func TestZeroFaultPlanMatchesNil(t *testing.T) {
	m := dlrm.RMC4().Scaled(64)
	tr := matrixTrace(t, trace.MetaLike, m)
	for _, s := range Schemes() {
		cfg := Config{Scheme: s, Model: m, Trace: tr, Seed: 3}
		base, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for _, p := range []*fault.Plan{{}, {MaxRetries: 5, TimeoutNS: 100}} {
			empty := cfg
			empty.Faults = p
			r, err := Run(empty)
			if err != nil {
				t.Fatalf("%s empty plan: %v", s, err)
			}
			if !reflect.DeepEqual(base, r) {
				t.Errorf("%s: zero-fault plan diverged from nil plan:\n  nil:   %#v\n  empty: %#v", s, base, r)
			}
		}
	}
}

// TestDeviceFailTimeoutsRetriesAborts fails one device for the whole run:
// every read to it must time out, retry with backoff, and finally abort —
// yet every bag still completes (degraded), so goodput stays well-defined.
func TestDeviceFailTimeoutsRetriesAborts(t *testing.T) {
	m := dlrm.RMC4().Scaled(64)
	tr := matrixTrace(t, trace.MetaLike, m)
	cfg := Config{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3, Devices: 4}
	clean := faultProbe(t, cfg)

	cfg.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.DeviceFail, Device: 0, AtNS: 0, DurationNS: 100 * int64(clean.TotalNS)},
	}}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bags != clean.Bags {
		t.Errorf("faulted run completed %d bags, clean run %d — degradation must not lose bags", r.Bags, clean.Bags)
	}
	if r.FaultTimeouts == 0 || r.FaultRetries == 0 {
		t.Errorf("whole-run device failure produced no timeouts/retries (%d/%d)", r.FaultTimeouts, r.FaultRetries)
	}
	if r.AbortedRows == 0 || r.AbortedBags == 0 {
		t.Errorf("exhausted retries produced no aborts (rows=%d bags=%d)", r.AbortedRows, r.AbortedBags)
	}
	if r.DeviceDropped == 0 {
		t.Errorf("failed device dropped no reads")
	}
	if r.AbortedBags > r.Bags {
		t.Errorf("aborted bags %d exceed total bags %d", r.AbortedBags, r.Bags)
	}
	if r.GoodputBagsPerSec <= 0 || r.GoodputBagsPerSec >= float64(r.Bags)/float64(r.TotalNS)*1e9 {
		t.Errorf("goodput %.1f not strictly between 0 and raw throughput", r.GoodputBagsPerSec)
	}
}

// TestSwitchStallReroutesToHostDRAM stalls the only switch for the whole
// run: hosts must re-route remote rows to the host-DRAM fallback, so the
// run completes with rerouted rows and no aborts.
func TestSwitchStallReroutesToHostDRAM(t *testing.T) {
	m := dlrm.RMC4().Scaled(64)
	tr := matrixTrace(t, trace.MetaLike, m)
	cfg := Config{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3}
	clean := faultProbe(t, cfg)

	cfg.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.SwitchStall, Switch: 0, AtNS: 0, DurationNS: 100 * int64(clean.TotalNS)},
	}}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bags != clean.Bags {
		t.Errorf("stalled-switch run completed %d bags, clean run %d", r.Bags, clean.Bags)
	}
	if r.ReroutedRows == 0 {
		t.Errorf("whole-run switch stall rerouted no rows to host DRAM")
	}
	if r.AbortedBags != 0 {
		t.Errorf("reroute fallback still aborted %d bags", r.AbortedBags)
	}
	if r.DegradedFraction <= 0 || r.DegradedFraction > 1 {
		t.Errorf("degraded fraction %.3f outside (0, 1]", r.DegradedFraction)
	}
}

// TestLinkFlapAccruesStall flaps a host link across the middle of the run
// and checks the stall shows up in the link counters and the total runtime.
func TestLinkFlapAccruesStall(t *testing.T) {
	m := dlrm.RMC4().Scaled(64)
	tr := matrixTrace(t, trace.MetaLike, m)
	cfg := Config{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3}
	clean := faultProbe(t, cfg)

	h := int64(clean.TotalNS)
	cfg.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.LinkFlap, Target: "host0.down", AtNS: h / 8, DurationNS: h / 2},
	}}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkFaultStallNS == 0 {
		t.Errorf("mid-run link flap accrued no stall time")
	}
	if r.TotalNS <= clean.TotalNS {
		t.Errorf("link flap did not lengthen the run: %d <= %d ns", r.TotalNS, clean.TotalNS)
	}
}

// TestInvalidPlanRejected checks Run fails fast, with the offending event
// named, before any simulation state is assembled.
func TestInvalidPlanRejected(t *testing.T) {
	m := dlrm.RMC4().Scaled(64)
	tr := matrixTrace(t, trace.MetaLike, m)
	cases := []struct {
		name string
		plan *fault.Plan
		want string
	}{
		{"unknown-link",
			&fault.Plan{Events: []fault.Event{{Kind: fault.LinkFlap, Target: "sw9.dsp9.down", AtNS: 0, DurationNS: 10}}},
			"unknown link"},
		{"device-out-of-range",
			&fault.Plan{Events: []fault.Event{{Kind: fault.DeviceFail, Device: 99, AtNS: 0, DurationNS: 10}}},
			"out of range"},
		{"bad-kind",
			&fault.Plan{Events: []fault.Event{{Kind: "meteor-strike", AtNS: 0, DurationNS: 10}}},
			"unknown kind"},
		{"zero-duration",
			&fault.Plan{Events: []fault.Event{{Kind: fault.SwitchStall, Switch: 0, AtNS: 5}}},
			"duration_ns"},
	}
	for _, tc := range cases {
		cfg := Config{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3, Faults: tc.plan}
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: Run accepted an invalid plan", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
