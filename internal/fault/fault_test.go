package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"pifsrec/internal/sim"
)

func testTopo() Topology {
	return Topology{
		Hosts: 2, Switches: 2, Devices: 4, DeviceChannels: 4,
		Links: []string{
			"host0.down", "host0.up", "host1.down", "host1.up",
			"sw0.dsp0.down", "sw0.dsp0.up", "sw1.dsp0.down", "sw1.dsp0.up",
			"sw0-sw1.req", "sw0-sw1.rsp", "sw1-sw0.req", "sw1-sw0.rsp",
		},
	}
}

func TestParseRoundTripAndDefaults(t *testing.T) {
	p, err := Parse([]byte(`{
		"events": [
			{"kind": "link-flap", "target": "host0.down", "at_ns": 100, "duration_ns": 50},
			{"kind": "device-slow", "device": 2, "at_ns": 10, "duration_ns": 20, "extra_ns": 300}
		],
		"max_retries": 5
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 2 || p.Events[0].Kind != LinkFlap || p.Events[1].ExtraNS != 300 {
		t.Fatalf("parsed plan wrong: %#v", p)
	}
	if p.RetryLimit() != 5 {
		t.Errorf("explicit max_retries lost: %d", p.RetryLimit())
	}
	if p.Timeout() != DefaultTimeoutNS || p.Backoff() != DefaultBackoffNS {
		t.Errorf("defaults not applied: timeout %d backoff %d", p.Timeout(), p.Backoff())
	}
	if p.Events[0].End() != 150 {
		t.Errorf("End() = %d, want 150", p.Events[0].End())
	}
}

// TestParseRejectsUnknownFields: a typo'd key must fail loudly instead of
// silently disabling its fault.
func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"events": [{"kind": "device-fail", "devcie": 1, "at_ns": 0, "duration_ns": 5}]}`))
	if err == nil || !strings.Contains(err.Error(), "devcie") {
		t.Errorf("unknown field accepted or unnamed in error: %v", err)
	}
}

// TestValidateActionableErrors checks every rejection names the offending
// event and states the valid range — the message must be actionable.
func TestValidateActionableErrors(t *testing.T) {
	topo := testTopo()
	cases := []struct {
		name string
		plan Plan
		want []string
	}{
		{"unknown-link",
			Plan{Events: []Event{{Kind: LinkFlap, Target: "nope", AtNS: 0, DurationNS: 1}}},
			[]string{"event 0", `unknown link "nope"`, "host0.down"}},
		{"device-range",
			Plan{Events: []Event{{Kind: DeviceFail, Device: 7, AtNS: 0, DurationNS: 1}}},
			[]string{"event 0", "device 7 out of range", "4 devices", "0..3"}},
		{"channel-range",
			Plan{Events: []Event{{Kind: DRAMOffline, Device: 0, Channel: 9, AtNS: 0, DurationNS: 1}}},
			[]string{"channel 9 out of range", "4 DRAM channels"}},
		{"switch-range",
			Plan{Events: []Event{{Kind: SwitchStall, Switch: -1, AtNS: 0, DurationNS: 1}}},
			[]string{"switch -1 out of range", "2 switches"}},
		{"slow-needs-extra",
			Plan{Events: []Event{{Kind: DeviceSlow, Device: 0, AtNS: 0, DurationNS: 1}}},
			[]string{"extra_ns must be positive"}},
		{"slow-extra-past-bound",
			Plan{Events: []Event{{Kind: DeviceSlow, Device: 0, AtNS: 0, DurationNS: 1000, ExtraNS: math.MaxInt64}}},
			[]string{"event 0 (device-slow)", "at most 1152921504606846976 ns", "got 9223372036854775807"}},
		{"negative-at",
			Plan{Events: []Event{{Kind: DeviceFail, Device: 0, AtNS: -5, DurationNS: 1}}},
			[]string{"negative at_ns"}},
		{"zero-duration",
			Plan{Events: []Event{{Kind: DeviceFail, Device: 0, AtNS: 0}}},
			[]string{"duration_ns must be positive"}},
		{"window-overflows",
			Plan{Events: []Event{{Kind: DeviceFail, Device: 0, AtNS: math.MaxInt64 - 10, DurationNS: 1000}}},
			[]string{"event 0 (device-fail)", "ends past 1152921504606846976 ns"}},
		{"window-past-bound",
			Plan{Events: []Event{{Kind: SwitchStall, AtNS: sim.MaxInputNS - 4, DurationNS: 5}}},
			[]string{"event 0 (switch-stall)", "latest time an input may name"}},
		{"unknown-kind",
			Plan{Events: []Event{{Kind: "gremlin", AtNS: 0, DurationNS: 1}}},
			[]string{`unknown kind "gremlin"`, "link-flap"}},
		{"negative-retries", Plan{MaxRetries: -1}, []string{"negative max_retries"}},
		{"timeout-past-bound", Plan{TimeoutNS: math.MaxInt64}, []string{"timeout_ns 9223372036854775807 is past"}},
		{"backoff-past-bound", Plan{BackoffNS: 1 << 58, MaxRetries: 4}, []string{"backoff_ns 288230376151711744 doubled over 4 retries"}},
		{"retries-past-bound", Plan{MaxRetries: 64}, []string{"backoff_ns 1000 doubled over 64 retries"}},
	}
	for _, tc := range cases {
		err := tc.plan.Validate(topo)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q missing %q", tc.name, err, w)
			}
		}
	}
	good := Plan{Events: []Event{
		{Kind: LinkFlap, Target: "sw0-sw1.rsp", AtNS: 0, DurationNS: 1},
		{Kind: DRAMOffline, Device: 3, Channel: 3, AtNS: 2, DurationNS: 4},
		{Kind: DeviceFail, Device: 1, AtNS: sim.MaxInputNS - 5, DurationNS: 5},
	}}
	if err := good.Validate(topo); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	edge := Plan{TimeoutNS: sim.MaxInputNS, BackoffNS: 1 << 58, MaxRetries: 3}
	if err := edge.Validate(topo); err != nil {
		t.Errorf("plan at the input bound rejected: %v", err)
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(topo); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
}

func TestScheduleWindows(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: SwitchStall, Switch: 0, AtNS: 100, DurationNS: 50},
		{Kind: SwitchStall, Switch: 0, AtNS: 120, DurationNS: 100}, // overlaps → merged
		{Kind: SwitchStall, Switch: 1, AtNS: 500, DurationNS: 10},
		{Kind: DeviceFail, Device: 0, AtNS: 400, DurationNS: 50},
	}}
	s := Compile(p, 2)

	for _, tc := range []struct {
		sw   int
		t    int64
		want bool
	}{
		{0, 99, false}, {0, 100, true}, {0, 219, true}, {0, 220, false},
		{1, 150, false}, {1, 505, true},
		{7, 505, false}, {-1, 505, false}, // out of range → not down
	} {
		if got := s.SwitchDown(tc.sw, tc.t); got != tc.want {
			t.Errorf("SwitchDown(%d, %d) = %v, want %v", tc.sw, tc.t, got, tc.want)
		}
	}

	// Union: [100,220) ∪ [400,450) ∪ [500,510) = 120 + 50 + 10.
	if got := s.DegradedNS(1_000); got != 180 {
		t.Errorf("DegradedNS(1000) = %d, want 180", got)
	}
	// Horizon clips the last windows.
	if got := s.DegradedNS(410); got != 130 {
		t.Errorf("DegradedNS(410) = %d, want 130", got)
	}
	if got := s.DegradedNS(50); got != 0 {
		t.Errorf("DegradedNS(50) = %d, want 0", got)
	}
}

// TestChaosDeterministicAndValid: chaos is deterministic by construction —
// identical inputs yield identical plans — and the generated plan validates
// against its own topology with one event per applicable kind.
func TestChaosDeterministicAndValid(t *testing.T) {
	topo := testTopo()
	a := Chaos(11, topo, 1_000_000)
	b := Chaos(11, topo, 1_000_000)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n  %#v\n  %#v", a, b)
	}
	if err := a.Validate(topo); err != nil {
		t.Errorf("chaos plan invalid: %v", err)
	}
	if len(a.Events) != len(Kinds()) {
		t.Errorf("chaos plan has %d events, want one per kind (%d)", len(a.Events), len(Kinds()))
	}
	seen := map[Kind]bool{}
	for _, e := range a.Events {
		seen[e.Kind] = true
		if e.AtNS < 1_000_000/8 || e.End() > 1_000_000 {
			t.Errorf("%s window [%d, %d) outside the degraded band", e.Kind, e.AtNS, e.End())
		}
	}
	if len(seen) != len(Kinds()) {
		t.Errorf("chaos plan missing kinds: got %v", seen)
	}
	c := Chaos(12, topo, 1_000_000)
	if reflect.DeepEqual(a, c) {
		t.Errorf("different seeds produced identical plans")
	}
	// A topology with no links/switches omits those kinds instead of
	// emitting invalid events.
	bare := Topology{Devices: 2, DeviceChannels: 4}
	p := Chaos(3, bare, 1_000)
	if err := p.Validate(bare); err != nil {
		t.Errorf("bare-topology chaos plan invalid: %v", err)
	}
	for _, e := range p.Events {
		if e.Kind == LinkFlap || e.Kind == SwitchStall {
			t.Errorf("bare topology got %s event", e.Kind)
		}
	}
}

func TestEmpty(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() || !(&Plan{}).Empty() || !(&Plan{MaxRetries: 2}).Empty() {
		t.Error("plans without events must be Empty")
	}
	if (&Plan{Events: []Event{{Kind: DeviceFail, DurationNS: 1}}}).Empty() {
		t.Error("plan with events reported Empty")
	}
}
