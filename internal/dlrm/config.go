// Package dlrm describes the Deep Learning Recommendation Model workload
// the simulator times: the RMC1–RMC4 model configurations of Table I, the
// non-SLS FLOP estimate that weights Fig 14's end-to-end speedup, and the
// address layout that places embedding tables in simulated memory. It does
// not run the Fig 1 inference pipeline: the simulator times where each
// SparseLengthSum bag's row reads go, never the values they sum.
package dlrm

import "fmt"

// ModelConfig describes one recommendation model, mirroring Table I.
type ModelConfig struct {
	Name string
	// EmbRows is the number of embeddings per table ("Emb. Num").
	EmbRows int64
	// EmbDim is the embedding dimension in fp32 elements ("Emb. Dim");
	// a row vector occupies EmbDim*4 bytes.
	EmbDim int
	// Tables is the number of embedding tables. Table I does not pin this,
	// and the paper's characterization uses up to 192; the simulator takes
	// it as a knob (defaulting per DefaultTables) so footprints scale.
	Tables int
	// BottomMLP / TopMLP are hidden-layer widths; the final top width of 1
	// produces the CTR logit.
	BottomMLP []int
	TopMLP    []int
	// DenseFeatures is the width of the continuous-feature input vector.
	DenseFeatures int
}

// DefaultTables is the table count used when a config does not override it.
const DefaultTables = 16

// The four models of Table I.
func RMC1() ModelConfig {
	return ModelConfig{
		Name: "RMC1", EmbRows: 16384, EmbDim: 64, Tables: DefaultTables,
		BottomMLP: []int{256, 128, 128}, TopMLP: []int{128, 64, 1},
		DenseFeatures: 32,
	}
}

func RMC2() ModelConfig {
	return ModelConfig{
		Name: "RMC2", EmbRows: 131072, EmbDim: 64, Tables: DefaultTables,
		BottomMLP: []int{1024, 512, 128}, TopMLP: []int{384, 192, 1},
		DenseFeatures: 32,
	}
}

func RMC3() ModelConfig {
	return ModelConfig{
		Name: "RMC3", EmbRows: 1048576, EmbDim: 64, Tables: DefaultTables,
		BottomMLP: []int{2048, 1024, 256}, TopMLP: []int{512, 256, 1},
		DenseFeatures: 32,
	}
}

func RMC4() ModelConfig {
	return ModelConfig{
		Name: "RMC4", EmbRows: 1048576, EmbDim: 128, Tables: DefaultTables,
		BottomMLP: []int{2048, 2048, 256}, TopMLP: []int{768, 384, 1},
		DenseFeatures: 32,
	}
}

// Models returns RMC1..RMC4 in Table I order.
func Models() []ModelConfig {
	return []ModelConfig{RMC1(), RMC2(), RMC3(), RMC4()}
}

// ModelByName resolves a Table I model name.
func ModelByName(name string) (ModelConfig, error) {
	for _, m := range Models() {
		if m.Name == name {
			return m, nil
		}
	}
	return ModelConfig{}, fmt.Errorf("dlrm: unknown model %q (want RMC1..RMC4)", name)
}

// RowBytes returns the byte size of one embedding row vector.
func (c ModelConfig) RowBytes() int { return c.EmbDim * 4 }

// TableBytes returns the byte footprint of one embedding table.
func (c ModelConfig) TableBytes() int64 { return c.EmbRows * int64(c.RowBytes()) }

// TotalEmbeddingBytes returns the footprint of all tables.
func (c ModelConfig) TotalEmbeddingBytes() int64 {
	return int64(c.Tables) * c.TableBytes()
}

// Scaled returns a copy with EmbRows divided by factor (minimum 64 rows),
// keeping dimensions and MLPs intact. Tests and laptop-scale experiments
// use this so footprints shrink while skew and shape survive.
func (c ModelConfig) Scaled(factor int64) ModelConfig {
	if factor <= 0 {
		panic(fmt.Sprintf("dlrm: non-positive scale factor %d", factor))
	}
	out := c
	out.EmbRows = c.EmbRows / factor
	if out.EmbRows < 64 {
		out.EmbRows = 64
	}
	return out
}

// Validate reports configuration errors.
func (c ModelConfig) Validate() error {
	switch {
	case c.EmbRows <= 0:
		return fmt.Errorf("dlrm: %s: EmbRows must be positive", c.Name)
	case c.EmbDim <= 0 || c.EmbDim%4 != 0:
		return fmt.Errorf("dlrm: %s: EmbDim %d must be a positive multiple of 4", c.Name, c.EmbDim)
	case c.Tables <= 0:
		return fmt.Errorf("dlrm: %s: Tables must be positive", c.Name)
	case len(c.BottomMLP) == 0 || len(c.TopMLP) == 0:
		return fmt.Errorf("dlrm: %s: MLP stacks must be non-empty", c.Name)
	case c.TopMLP[len(c.TopMLP)-1] != 1:
		return fmt.Errorf("dlrm: %s: top MLP must end in width 1 (CTR logit)", c.Name)
	case c.DenseFeatures <= 0:
		return fmt.Errorf("dlrm: %s: DenseFeatures must be positive", c.Name)
	}
	return nil
}

// MLPFlops estimates multiply-accumulate FLOPs per inference sample for the
// non-SLS operators (both MLPs plus the interaction layer); the end-to-end
// speedup weighting of Fig 14 uses this.
func (c ModelConfig) MLPFlops() int64 {
	var flops int64
	in := c.DenseFeatures
	for _, w := range c.BottomMLP {
		flops += int64(2 * in * w)
		in = w
	}
	// Feature interaction: pairwise dots among Tables embedding vectors and
	// the bottom output's projection — ~(Tables+1 choose 2) dots of EmbDim.
	n := int64(c.Tables + 1)
	flops += n * (n - 1) / 2 * int64(2*c.EmbDim)
	in = c.topInputDim()
	for _, w := range c.TopMLP {
		flops += int64(2 * in * w)
		in = w
	}
	return flops
}

// topInputDim is the interaction output width feeding the top MLP: the
// bottom MLP output concatenated with the pairwise interaction terms.
func (c ModelConfig) topInputDim() int {
	n := c.Tables + 1
	return c.BottomMLP[len(c.BottomMLP)-1] + n*(n-1)/2
}
