package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"pifsrec/internal/fault"
	"pifsrec/internal/scenario"
	"pifsrec/internal/trace"
)

func encodeConfig(t *testing.T, cfg Config) []byte {
	t.Helper()
	b, err := cfg.CanonicalBinary()
	if err != nil {
		t.Fatalf("CanonicalBinary: %v", err)
	}
	return b
}

func baseEncodeConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Scheme: PIFSRec,
		Model:  testModel(),
		Trace:  testTrace(t, trace.MetaLike, testModel(), 2),
		Seed:   3,
	}
}

// TestCanonicalBinaryGolden pins the canonical encoding's layout with a
// golden hash. If this test fails, the encoding changed: bump
// memo.CodeVersion (internal/memo) so every cached result is invalidated,
// then update the golden value. NEVER update the golden without the salt
// bump — stale cache entries would alias the new encoding.
func TestCanonicalBinaryGolden(t *testing.T) {
	const golden = "dc2e10335326a90a36ab7376acb1ea4cc5560198a9fa279a2295e379c1cf7839"
	b := encodeConfig(t, baseEncodeConfig(t))
	sum := sha256.Sum256(b)
	got := hex.EncodeToString(sum[:])
	if got != golden {
		t.Fatalf("canonical encoding drifted.\n got %s\nwant %s\nIf this change is intentional, bump memo.CodeVersion AND update this golden.", got, golden)
	}
}

// TestCanonicalBinaryNormalizes asserts a zero-valued config and its
// explicit defaults encode identically — the property that lets a CLI run
// with default flags hit cache entries written by a fully-specified sweep.
func TestCanonicalBinaryNormalizes(t *testing.T) {
	implicit := baseEncodeConfig(t)
	explicit := implicit
	explicit.Devices = 4
	explicit.Switches = 1
	explicit.Hosts = 1
	explicit.LocalFraction = 0.125
	explicit.HostParallelism = 48
	explicit.EpochBags = 64
	if !bytes.Equal(encodeConfig(t, implicit), encodeConfig(t, explicit)) {
		t.Error("zero-valued config and explicit defaults encode differently")
	}
}

// TestCanonicalBinaryExcludesScheduling asserts Shards does not change the
// identity: results are byte-identical at every shard count (the
// determinism gates), so it is scheduling, not input.
func TestCanonicalBinaryExcludesScheduling(t *testing.T) {
	base := baseEncodeConfig(t)
	want := encodeConfig(t, base)

	sharded := base
	sharded.Shards = 3
	if !bytes.Equal(want, encodeConfig(t, sharded)) {
		t.Error("Shards changed the canonical encoding; it must stay a scheduling decision")
	}
}

// TestCanonicalBinarySensitivity asserts every semantic input changes the
// encoding — the fields a stale-result bug would hide behind.
func TestCanonicalBinarySensitivity(t *testing.T) {
	base := baseEncodeConfig(t)
	want := encodeConfig(t, base)

	mutations := map[string]func(*Config){
		"Scheme":             func(c *Config) { c.Scheme = Pond },
		"Model name":         func(c *Config) { c.Model.Name = "other" },
		"Model MLP":          func(c *Config) { c.Model.BottomMLP = []int{13, 64, 16} },
		"Devices":            func(c *Config) { c.Devices = 8 },
		"Switches":           func(c *Config) { c.Switches = 2 },
		"Hosts":              func(c *Config) { c.Hosts = 2 },
		"LocalFraction":      func(c *Config) { c.LocalFraction = 0.5 },
		"BufferBytes":        func(c *Config) { c.BufferBytes = 64 << 10 },
		"BufferPolicy":       func(c *Config) { c.BufferPolicy = "LRU" },
		"ColdAgeThreshold":   func(c *Config) { c.ColdAgeThreshold = 0.5 },
		"MigrateThreshold":   func(c *Config) { c.MigrateThreshold = 0.5 },
		"PageBlockMigration": func(c *Config) { c.PageBlockMigration = true },
		"HostParallelism":    func(c *Config) { c.HostParallelism = 4 },
		"EpochBags":          func(c *Config) { c.EpochBags = 16 },
		"DisableOoO":         func(c *Config) { c.DisableOoO = true },
		"DisablePM":          func(c *Config) { c.DisablePM = true },
		"DisableOSB":         func(c *Config) { c.DisableOSB = true },
		"TPPPolicy":          func(c *Config) { c.TPPPolicy = true },
		"Seed":               func(c *Config) { c.Seed = 4 },
		"Faults": func(c *Config) {
			c.Faults = &fault.Plan{Events: []fault.Event{{
				Kind: fault.DeviceSlow, Device: 0, AtNS: 10, DurationNS: 1000, ExtraNS: 50,
			}}}
		},
	}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if bytes.Equal(want, encodeConfig(t, cfg)) {
			t.Errorf("mutating %s did not change the canonical encoding", name)
		}
	}

	other := base
	other.Trace = testTrace(t, trace.Zipfian, testModel(), 2)
	if bytes.Equal(want, encodeConfig(t, other)) {
		t.Error("different trace did not change the canonical encoding")
	}

	bigger := base
	bigger.Model = testModel()
	bigger.Model.EmbRows *= 2
	bigger.Trace = testTrace(t, trace.MetaLike, bigger.Model, 2)
	if bytes.Equal(want, encodeConfig(t, bigger)) {
		t.Error("different model shape (with matching trace) did not change the canonical encoding")
	}
}

// TestCanonicalBinaryScenarioSection pins the scenario trailer's cache
// semantics: absence is bit-identical to the pre-scenario layout (so every
// existing memo entry keeps its key — the golden test above covers the same
// bytes), presence appends after the fixed v2 fields, every scenario knob is
// identity-bearing, and equivalent specs (normalized or not, empty or nil)
// encode identically.
func TestCanonicalBinaryScenarioSection(t *testing.T) {
	base := baseEncodeConfig(t)
	noScenario := encodeConfig(t, base)

	empty := base
	empty.Scenario = &scenario.Spec{}
	if !bytes.Equal(noScenario, encodeConfig(t, empty)) {
		t.Error("empty scenario spec changed the encoding; it must equal nil bit for bit")
	}

	withSc := base
	withSc.Scenario = &scenario.Spec{Kind: scenario.Poisson, QPS: 1e6, SLONS: 50_000, Seed: 9}
	scEnc := encodeConfig(t, withSc)
	if !bytes.HasPrefix(scEnc, noScenario) {
		t.Error("scenario section must append after the scenario-free encoding, not rewrite it")
	}

	// The spec's arguments are all identity-bearing.
	mutations := map[string]func(*scenario.Spec){
		"Kind":  func(s *scenario.Spec) { s.Kind = scenario.Diurnal },
		"QPS":   func(s *scenario.Spec) { s.QPS = 2e6 },
		"SLONS": func(s *scenario.Spec) { s.SLONS = 60_000 },
		"Seed":  func(s *scenario.Spec) { s.Seed = 10 },
	}
	for name, mutate := range mutations {
		cfg := withSc
		sp := *withSc.Scenario
		mutate(&sp)
		cfg.Scenario = &sp
		if bytes.Equal(scEnc, encodeConfig(t, cfg)) {
			t.Errorf("mutating scenario %s did not change the canonical encoding", name)
		}
	}

	// Normalization: an explicitly-defaulted diurnal spec and its implicit
	// twin encode identically; swing and period are identity-bearing.
	di := base
	di.Scenario = &scenario.Spec{Kind: scenario.Diurnal, QPS: 1e6}
	diExplicit := base
	diExplicit.Scenario = &scenario.Spec{Kind: scenario.Diurnal, QPS: 1e6,
		Swing: scenario.DefaultSwing, PeriodNS: scenario.DefaultPeriodNS}
	diEnc := encodeConfig(t, di)
	if !bytes.Equal(diEnc, encodeConfig(t, diExplicit)) {
		t.Error("implicit and explicit diurnal defaults encode differently")
	}
	diSwing := base
	diSwing.Scenario = &scenario.Spec{Kind: scenario.Diurnal, QPS: 1e6, Swing: 0.9}
	if bytes.Equal(diEnc, encodeConfig(t, diSwing)) {
		t.Error("diurnal swing did not change the canonical encoding")
	}
	diPeriod := base
	diPeriod.Scenario = &scenario.Spec{Kind: scenario.Diurnal, QPS: 1e6, PeriodNS: 77_000}
	if bytes.Equal(diEnc, encodeConfig(t, diPeriod)) {
		t.Error("diurnal period did not change the canonical encoding")
	}
}

// TestCanonicalBinaryScenarioTraceHashesContent: a trace-driven scenario's
// identity is the arrival file's bytes, not its path — renaming hits the
// same cache entries, editing misses.
func TestCanonicalBinaryScenarioTraceHashesContent(t *testing.T) {
	base := baseEncodeConfig(t)
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.trc")
	if err := base.Trace.Save(p1); err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Scenario = &scenario.Spec{Kind: scenario.Trace, QPS: 1e6, ArrivalTracePath: p1}
	enc1 := encodeConfig(t, cfg)

	p2 := filepath.Join(dir, "renamed.trc")
	data, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	moved := base
	moved.Scenario = &scenario.Spec{Kind: scenario.Trace, QPS: 1e6, ArrivalTracePath: p2}
	if !bytes.Equal(enc1, encodeConfig(t, moved)) {
		t.Error("renaming the arrival trace changed the canonical encoding")
	}

	p3 := filepath.Join(dir, "edited.trc")
	other := testTrace(t, trace.Zipfian, testModel(), 2)
	if err := other.Save(p3); err != nil {
		t.Fatal(err)
	}
	edited := base
	edited.Scenario = &scenario.Spec{Kind: scenario.Trace, QPS: 1e6, ArrivalTracePath: p3}
	if bytes.Equal(enc1, encodeConfig(t, edited)) {
		t.Error("different arrival trace content did not change the canonical encoding")
	}

	missing := base
	missing.Scenario = &scenario.Spec{Kind: scenario.Trace, QPS: 1e6,
		ArrivalTracePath: filepath.Join(dir, "missing.trc")}
	if _, err := missing.CanonicalBinary(); err == nil {
		t.Error("missing arrival trace produced a canonical encoding instead of an error")
	}
}

// TestCanonicalBinaryInvalidConfig asserts invalid configs error instead of
// producing a bogus cache key.
func TestCanonicalBinaryInvalidConfig(t *testing.T) {
	bad := baseEncodeConfig(t)
	bad.Scheme = "no-such-scheme"
	if _, err := bad.CanonicalBinary(); err == nil {
		t.Error("invalid scheme produced a canonical encoding instead of an error")
	}
	var noTrace Config
	noTrace.Scheme = PIFSRec
	noTrace.Model = testModel()
	if _, err := noTrace.CanonicalBinary(); err == nil {
		t.Error("config without a trace produced a canonical encoding instead of an error")
	}
}
