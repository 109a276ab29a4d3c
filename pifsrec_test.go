package pifsrec

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"pifsrec/internal/fault"
)

func smallModel() ModelConfig {
	m := RMC1().Scaled(64)
	m.Tables = 4
	return m
}

func TestSimulateRoundTrip(t *testing.T) {
	m := smallModel()
	tr, err := TraceFor(MetaLike, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range Schemes() {
		r, err := Simulate(Config{Scheme: scheme, Model: m, Trace: tr, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if r.Bags == 0 || r.NSPerBag <= 0 {
			t.Fatalf("%s: empty result %+v", scheme, r)
		}
	}
}

// TestSimulateRejectsBadInput builds traces bag by bag, as a library
// caller would, and checks that Simulate reports each malformed one, and
// each config with an unknown scheme, a non-finite float or a time past
// the input bound, as an error instead of panicking, hanging or simulating
// it.
func TestSimulateRejectsBadInput(t *testing.T) {
	m := smallModel()
	// Control: a well-formed hand-built trace, with the edge rows and
	// weights, simulates.
	good := &Trace{Tables: m.Tables, RowsPerTable: m.EmbRows, Bags: []Bag{
		{Table: int32(m.Tables - 1), Indices: []uint32{0, uint32(m.EmbRows - 1)}, Weights: []float32{1, 0.5}},
	}}
	if r, err := Simulate(Config{Scheme: PIFSRec, Model: m, Trace: good, Seed: 1}); err != nil || r.Bags != 1 {
		t.Fatalf("well-formed trace: %d bags, err %v", r.Bags, err)
	}

	ok := Bag{Table: 0, Indices: []uint32{1}}
	nan, inf := math.NaN(), math.Inf(1)
	// A case with a field also needs the error to name that config field.
	cases := []struct {
		name  string
		bag   Bag
		edit  func(*Config)
		field string
	}{
		{"row past table", Bag{Table: 0, Indices: []uint32{uint32(m.EmbRows)}}, nil, ""},
		{"table past model", Bag{Table: int32(m.Tables), Indices: []uint32{1}}, nil, ""},
		{"negative table", Bag{Table: -1, Indices: []uint32{1}}, nil, ""},
		{"one weight for two indices", Bag{Table: 0, Indices: []uint32{1, 2}, Weights: []float32{0.5}}, nil, ""},
		{"unknown scheme", ok, func(c *Config) { c.Scheme = "warp-drive" }, ""},
		// JSON has no NaN or infinity, and no config float means anything
		// there.
		{"NaN LocalFraction", ok, func(c *Config) { c.LocalFraction = nan }, ""},
		{"infinite LocalFraction", ok, func(c *Config) { c.LocalFraction = inf }, ""},
		{"NaN ColdAgeThreshold", ok, func(c *Config) { c.ColdAgeThreshold = nan }, ""},
		{"infinite MigrateThreshold", ok, func(c *Config) { c.MigrateThreshold = -inf }, ""},
		{"NaN poisson swing", ok, func(c *Config) {
			c.Scenario = &ScenarioSpec{Kind: ScenarioPoisson, QPS: 1e6, Swing: nan}
		}, ""},
		{"infinite diurnal swing", ok, func(c *Config) {
			c.Scenario = &ScenarioSpec{Kind: ScenarioDiurnal, QPS: 1e6, Swing: inf}
		}, ""},
		// Far-future times: a window end that overflows int64 used to make
		// the sharded loop elide one window forever, and an arrival past
		// int64 or a device-slow delay near it used to become a negative
		// tick and panic.
		{"fault window past the input bound", ok, func(c *Config) {
			c.Faults = &FaultPlan{Events: []fault.Event{
				{Kind: fault.DeviceFail, Device: 0, AtNS: math.MaxInt64 - 10, DurationNS: 1000}}}
		}, ""},
		{"fault timeout past the input bound", ok, func(c *Config) {
			c.Faults = &FaultPlan{TimeoutNS: math.MaxInt64, Events: []fault.Event{
				{Kind: fault.DeviceFail, Device: 0, AtNS: 0, DurationNS: 1000}}}
		}, ""},
		{"device-slow extra past the input bound", ok, func(c *Config) {
			// The slowed access's completion time used to wrap negative.
			c.Faults = &FaultPlan{Events: []fault.Event{
				{Kind: fault.DeviceSlow, Device: 0, AtNS: 0, DurationNS: 1000, ExtraNS: math.MaxInt64}}}
		}, ""},
		{"arrivals past the input bound", ok, func(c *Config) {
			// At 1e-9 qps the mean gap is 1e18 ns, so 64 arrivals run past
			// 2^63 ns.
			for range 63 {
				c.Trace.Bags = append(c.Trace.Bags, ok)
			}
			c.Scenario = &ScenarioSpec{Kind: ScenarioPoisson, QPS: 1e-9}
		}, ""},
		// Counts and sizes below their range used to panic, run, or fail
		// with an error about something else.
		{"negative Hosts", ok, func(c *Config) { c.Hosts = -1 }, "Hosts"},
		{"negative Switches", ok, func(c *Config) { c.Switches = -1 }, "Switches"},
		{"negative Devices", ok, func(c *Config) { c.Devices = -1 }, "Devices"},
		{"negative HostParallelism", ok, func(c *Config) { c.HostParallelism = -1 }, "HostParallelism"},
		{"negative EpochBags", ok, func(c *Config) { c.EpochBags = -1 }, "EpochBags"},
		{"negative BufferBytes", ok, func(c *Config) { c.BufferBytes = -1 }, "BufferBytes"},
		{"BufferBytes below the SRAM range", ok, func(c *Config) { c.BufferBytes = 1 }, "BufferBytes"},
		{"BufferBytes above the SRAM range", ok, func(c *Config) { c.BufferBytes = 1 << 30 }, "BufferBytes"},
		{"unknown BufferPolicy", ok, func(c *Config) { c.BufferPolicy = "zz" }, "BufferPolicy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := &Trace{Tables: m.Tables, RowsPerTable: m.EmbRows, Bags: []Bag{tc.bag}}
			cfg := Config{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 1}
			if tc.edit != nil {
				tc.edit(&cfg)
			}
			// Simulate runs under a deadline, so an input that hangs it
			// fails this case instead of stalling the suite.
			res := make(chan error, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						res <- fmt.Errorf("Simulate panicked: %v", r)
					}
				}()
				_, err := Simulate(cfg)
				switch {
				case err == nil:
					res <- errors.New("Simulate accepted the input")
				case !strings.Contains(err.Error(), tc.field):
					res <- fmt.Errorf("error %q does not name %s", err, tc.field)
				default:
					res <- nil
				}
			}()
			select {
			case err := <-res:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("Simulate did not return within 20 s")
			}
		})
	}
}

func TestSchemeComparisonThroughPublicAPI(t *testing.T) {
	m := smallModel()
	tr, err := TraceFor(MetaLike, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	pond, err := Simulate(Config{Scheme: Pond, Model: m, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pifs, err := Simulate(Config{Scheme: PIFSRec, Model: m, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pifs.NSPerBag >= pond.NSPerBag {
		t.Errorf("PIFS-Rec (%.0f ns/bag) not faster than Pond (%.0f ns/bag)",
			pifs.NSPerBag, pond.NSPerBag)
	}
}
