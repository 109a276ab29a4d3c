package engine

import (
	"testing"

	"pifsrec/internal/dlrm"
	"pifsrec/internal/trace"
)

// testModel returns a small model whose footprint runs in milliseconds of
// wall time but still spans thousands of pages so placement matters.
func testModel() dlrm.ModelConfig {
	cfg := dlrm.RMC1().Scaled(4) // 4096 rows x 16 tables x 256 B = 16 MiB
	return cfg
}

func testTrace(t *testing.T, kind trace.Kind, model dlrm.ModelConfig, batches int) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.Spec{
		Kind:         kind,
		Tables:       model.Tables,
		RowsPerTable: model.EmbRows,
		Batches:      batches,
		BatchSize:    4,
		// Production pooling factors run in the tens of rows per lookup;
		// this is the regime where accumulation offload pays.
		BagSize: 32,
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func runScheme(t *testing.T, scheme Scheme, mutate func(*Config)) Result {
	t.Helper()
	model := testModel()
	cfg := Config{
		Scheme: scheme,
		Model:  model,
		Trace:  testTrace(t, trace.MetaLike, model, 2),
		Seed:   3,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAllSchemesComplete(t *testing.T) {
	for _, scheme := range Schemes() {
		r := runScheme(t, scheme, nil)
		if r.Bags == 0 || r.TotalNS == 0 {
			t.Errorf("%s: empty result %+v", scheme, r)
		}
		wantBags := 2 * 4 * testModel().Tables
		if r.Bags != wantBags {
			t.Errorf("%s: %d bags completed, want %d", scheme, r.Bags, wantBags)
		}
	}
}

func TestSchemeOrderingMatchesPaper(t *testing.T) {
	// Fig 12(a) ordering on skewed traces: Pond slowest; Pond+PM better;
	// BEACON better still; RecNMP and PIFS-Rec fastest with PIFS-Rec ahead.
	lat := map[Scheme]float64{}
	for _, scheme := range Schemes() {
		lat[scheme] = runScheme(t, scheme, nil).NSPerBag
	}
	if !(lat[PIFSRec] < lat[BEACON] && lat[BEACON] < lat[Pond]) {
		t.Errorf("ordering violated: PIFS=%.0f BEACON=%.0f Pond=%.0f",
			lat[PIFSRec], lat[BEACON], lat[Pond])
	}
	if lat[PondPM] >= lat[Pond] {
		t.Errorf("Pond+PM (%.0f) not better than Pond (%.0f)", lat[PondPM], lat[Pond])
	}
	if lat[RecNMP] >= lat[Pond] {
		t.Errorf("RecNMP (%.0f) not better than Pond (%.0f)", lat[RecNMP], lat[Pond])
	}
	if lat[PIFSRec] >= lat[RecNMP] {
		t.Errorf("PIFS-Rec (%.0f) not ahead of RecNMP (%.0f)", lat[PIFSRec], lat[RecNMP])
	}
}

func TestPIFSUsesLessHostUplink(t *testing.T) {
	pond := runScheme(t, Pond, nil)
	pifsR := runScheme(t, PIFSRec, nil)
	// Pond hauls every remote row vector over the host link; PIFS-Rec only
	// the accumulated sums. The gap should be large.
	if pifsR.HostLinkUpBytes*2 > pond.HostLinkUpBytes {
		t.Errorf("PIFS uplink %d B not well below Pond %d B",
			pifsR.HostLinkUpBytes, pond.HostLinkUpBytes)
	}
}

func TestPIFSBufferHitsOnSkewedTrace(t *testing.T) {
	r := runScheme(t, PIFSRec, nil)
	if r.BufferHits == 0 {
		t.Error("no on-switch buffer hits on a meta-like trace")
	}
	if r.BufferHitRatio <= 0 || r.BufferHitRatio >= 1 {
		t.Errorf("hit ratio %v outside (0,1)", r.BufferHitRatio)
	}
}

func TestPMRaisesLocalShare(t *testing.T) {
	static := runScheme(t, Pond, nil)
	managed := runScheme(t, PondPM, nil)
	if managed.LocalShare <= static.LocalShare {
		t.Errorf("PM local share %.3f not above static %.3f",
			managed.LocalShare, static.LocalShare)
	}
	if managed.PagesMigrated == 0 {
		t.Error("PM never migrated a page")
	}
}

func TestAblationMonotonic(t *testing.T) {
	// Fig 12(e): each PIFS-Rec feature must not hurt, and the full stack
	// must beat the bare process core.
	bare := runScheme(t, PIFSRec, func(c *Config) {
		c.DisableOoO, c.DisablePM, c.DisableOSB = true, true, true
	})
	ooo := runScheme(t, PIFSRec, func(c *Config) {
		c.DisablePM, c.DisableOSB = true, true
	})
	oooPM := runScheme(t, PIFSRec, func(c *Config) {
		c.DisableOSB = true
	})
	full := runScheme(t, PIFSRec, nil)
	if full.NSPerBag >= bare.NSPerBag {
		t.Errorf("full PIFS (%.0f ns) not better than bare PC (%.0f ns)",
			full.NSPerBag, bare.NSPerBag)
	}
	if ooo.NSPerBag > bare.NSPerBag*1.02 {
		t.Errorf("OoO regressed: %.0f vs %.0f", ooo.NSPerBag, bare.NSPerBag)
	}
	if oooPM.NSPerBag > ooo.NSPerBag*1.02 {
		t.Errorf("PM regressed: %.0f vs %.0f", oooPM.NSPerBag, ooo.NSPerBag)
	}
}

func TestBEACONSlowerThanPIFS(t *testing.T) {
	b := runScheme(t, BEACON, nil)
	p := runScheme(t, PIFSRec, nil)
	if p.NSPerBag >= b.NSPerBag {
		t.Errorf("PIFS-Rec (%.0f) not faster than BEACON (%.0f)", p.NSPerBag, b.NSPerBag)
	}
}

func TestMoreDevicesHelpPIFS(t *testing.T) {
	two := runScheme(t, PIFSRec, func(c *Config) { c.Devices = 2 })
	eight := runScheme(t, PIFSRec, func(c *Config) { c.Devices = 8 })
	if eight.NSPerBag >= two.NSPerBag {
		t.Errorf("8 devices (%.0f ns) not faster than 2 (%.0f ns)",
			eight.NSPerBag, two.NSPerBag)
	}
}

func TestMultiSwitchCompletes(t *testing.T) {
	r := runScheme(t, PIFSRec, func(c *Config) {
		c.Switches = 4
		c.Devices = 8
	})
	if r.Bags == 0 {
		t.Fatal("multi-switch run produced nothing")
	}
}

func TestMultiHostCompletes(t *testing.T) {
	r := runScheme(t, PIFSRec, func(c *Config) { c.Hosts = 4 })
	wantBags := 2 * 4 * testModel().Tables
	if r.Bags != wantBags {
		t.Fatalf("multi-host completed %d bags, want %d", r.Bags, wantBags)
	}
}

func TestMultiHostThroughputScales(t *testing.T) {
	// Hosts share the switch and the pooled devices, so raw throughput
	// scaling is sublinear; the required properties are (a) no collapse
	// under 4x load and (b) scaling improves when the fabric scales with
	// the hosts (the Fig 13(c)/14 setup: one switch+device per host).
	model := testModel()
	mk := func(hosts, switches, devices, batches int) float64 {
		cfg := Config{
			Scheme:   PIFSRec,
			Model:    model,
			Trace:    testTrace(t, trace.MetaLike, model, batches),
			Hosts:    hosts,
			Switches: switches,
			Devices:  devices,
			Seed:     3,
		}
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.Bags) / float64(r.TotalNS)
	}
	one := mk(1, 1, 4, 2)
	fourShared := mk(4, 1, 4, 8)
	fourScaled := mk(4, 4, 4, 8)
	if fourShared < one {
		t.Errorf("4-host shared-fabric throughput %.4g collapsed below 1-host %.4g", fourShared, one)
	}
	if fourScaled < one*1.3 {
		t.Errorf("4-host scaled-fabric throughput %.4g not well above 1-host %.4g", fourScaled, one)
	}
}

func TestDeterminism(t *testing.T) {
	a := runScheme(t, PIFSRec, nil)
	b := runScheme(t, PIFSRec, nil)
	if a.TotalNS != b.TotalNS || a.HostLinkUpBytes != b.HostLinkUpBytes {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	model := testModel()
	tr := testTrace(t, trace.Uniform, model, 1)
	bad := []Config{
		{Scheme: "bogus", Model: model, Trace: tr},
		{Scheme: Pond, Model: model},                         // no trace
		{Scheme: Pond, Model: model, Trace: tr, Switches: 2}, // multi-switch Pond
		{Scheme: PIFSRec, Model: model, Trace: tr, Switches: 8, Devices: 4},
		{Scheme: PIFSRec, Model: model, Trace: tr, LocalFraction: 1.5},
		{Scheme: PIFSRec, Model: model, Trace: tr, HostParallelism: 64},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Mismatched trace/model shape.
	other := dlrm.RMC2().Scaled(64)
	if _, err := Run(Config{Scheme: Pond, Model: other, Trace: tr}); err == nil {
		t.Error("mismatched trace accepted")
	}
}

// TestZeroIndexBagIsConfigError: PIFSTRC1 admits a bag with no indices,
// but no scheme can run one, so Run and CanonicalBinary both reject it as a
// config error naming the bag instead of panicking in bag dispatch.
func TestZeroIndexBagIsConfigError(t *testing.T) {
	model := testModel()
	tr := testTrace(t, trace.Uniform, model, 1)
	tr.Bags[3].Indices = nil
	cfg := Config{Scheme: PIFSRec, Model: model, Trace: tr, Seed: 3}
	const want = "engine: trace bag 3 has no indices"
	if _, err := Run(cfg); err == nil || err.Error() != want {
		t.Errorf("Run: error %v, want %q", err, want)
	}
	if _, err := cfg.CanonicalBinary(); err == nil || err.Error() != want {
		t.Errorf("CanonicalBinary: error %v, want %q", err, want)
	}
}

func TestUniformTraceRunsAllSchemes(t *testing.T) {
	model := testModel()
	tr := testTrace(t, trace.Uniform, model, 1)
	for _, scheme := range Schemes() {
		r, err := Run(Config{Scheme: scheme, Model: model, Trace: tr, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if r.Bags == 0 {
			t.Fatalf("%s: no bags", scheme)
		}
	}
}

func TestDeviceReadsAccounted(t *testing.T) {
	r := runScheme(t, PIFSRec, nil)
	var devReads int64
	for _, n := range r.DeviceReads {
		devReads += n
	}
	if devReads == 0 {
		t.Error("no device reads recorded")
	}
	if r.LocalDRAMReads == 0 {
		t.Error("no local DRAM reads recorded")
	}
}

func TestPageBlockMigrationCostsMore(t *testing.T) {
	line := runScheme(t, PIFSRec, nil)
	block := runScheme(t, PIFSRec, func(c *Config) { c.PageBlockMigration = true })
	if line.PagesMigrated == 0 {
		t.Skip("no migrations in this configuration")
	}
	if block.MigrationStallNS <= line.MigrationStallNS {
		t.Errorf("page-block stall %d not above cache-line %d",
			block.MigrationStallNS, line.MigrationStallNS)
	}
}
