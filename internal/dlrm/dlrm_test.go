package dlrm

import "testing"

func TestTable1Configs(t *testing.T) {
	models := Models()
	if len(models) != 4 {
		t.Fatalf("%d models, want 4", len(models))
	}
	// Spot-check Table I values.
	if m := models[0]; m.EmbRows != 16384 || m.EmbDim != 64 {
		t.Errorf("RMC1 = %+v", m)
	}
	if m := models[3]; m.EmbRows != 1048576 || m.EmbDim != 128 {
		t.Errorf("RMC4 = %+v", m)
	}
	for _, m := range models {
		if err := m.Validate(); err != nil {
			t.Errorf("%s invalid: %v", m.Name, err)
		}
	}
	// Footprints must be strictly increasing RMC1 -> RMC4.
	for i := 1; i < 4; i++ {
		if models[i].TotalEmbeddingBytes() <= models[i-1].TotalEmbeddingBytes() {
			t.Errorf("%s footprint not above %s", models[i].Name, models[i-1].Name)
		}
	}
}

func TestModelByName(t *testing.T) {
	m, err := ModelByName("RMC3")
	if err != nil || m.Name != "RMC3" {
		t.Fatalf("ModelByName(RMC3) = %v, %v", m, err)
	}
	if _, err := ModelByName("RMC9"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestRowBytes(t *testing.T) {
	if got := RMC1().RowBytes(); got != 256 {
		t.Errorf("RMC1 row bytes = %d, want 256 (64 fp32)", got)
	}
	if got := RMC4().RowBytes(); got != 512 {
		t.Errorf("RMC4 row bytes = %d, want 512 (128 fp32)", got)
	}
}

func TestScaled(t *testing.T) {
	c := RMC4().Scaled(1024)
	if c.EmbRows != 1024 {
		t.Errorf("scaled rows = %d, want 1024", c.EmbRows)
	}
	if c.EmbDim != 128 {
		t.Error("scaling changed dimension")
	}
	tiny := RMC1().Scaled(1 << 40)
	if tiny.EmbRows != 64 {
		t.Errorf("floor = %d, want 64", tiny.EmbRows)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*ModelConfig){
		func(c *ModelConfig) { c.EmbRows = 0 },
		func(c *ModelConfig) { c.EmbDim = 0 },
		func(c *ModelConfig) { c.EmbDim = 3 },
		func(c *ModelConfig) { c.Tables = 0 },
		func(c *ModelConfig) { c.TopMLP = []int{128, 2} },
		func(c *ModelConfig) { c.DenseFeatures = 0 },
	}
	for i, mutate := range bad {
		c := RMC1()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLayoutAddresses(t *testing.T) {
	cfg := RMC1().Scaled(64)
	cfg.Tables = 4
	l := NewLayout(cfg, 1<<20)
	if l.RowAddr(0, 0) != 1<<20 {
		t.Error("base address wrong")
	}
	// Consecutive rows are RowBytes apart.
	if l.RowAddr(0, 1)-l.RowAddr(0, 0) != uint64(cfg.RowBytes()) {
		t.Error("row stride wrong")
	}
	// Tables are TableBytes apart.
	if l.RowAddr(1, 0)-l.RowAddr(0, 0) != uint64(cfg.TableBytes()) {
		t.Error("table stride wrong")
	}
	if l.Footprint() != cfg.TotalEmbeddingBytes() {
		t.Error("footprint mismatch")
	}
}

func TestLayoutBoundsPanic(t *testing.T) {
	cfg := RMC1().Scaled(64)
	l := NewLayout(cfg, 0)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range layout access accepted")
		}
	}()
	l.RowAddr(int32(cfg.Tables), 0)
}

func TestMLPFlopsOrdering(t *testing.T) {
	// Bigger models must cost more non-SLS FLOPs.
	models := Models()
	for i := 1; i < len(models); i++ {
		if models[i].MLPFlops() <= models[i-1].MLPFlops() {
			t.Errorf("%s FLOPs not above %s", models[i].Name, models[i-1].Name)
		}
	}
}
