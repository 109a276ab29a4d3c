package pifs

import (
	"testing"

	"pifsrec/internal/sim"
)

// testCore routes token completions to per-cluster test callbacks: each
// configure stores its callback and passes the slot index as the token.
type testCore struct {
	*Core
	done []func(at sim.Tick)
}

func newCore(cfg Config) (*sim.Engine, *testCore) {
	eng := sim.NewEngine()
	c := &testCore{Core: New(eng, cfg)}
	c.SetCompletionSink(func(tok int32, at sim.Tick) { c.done[tok](at) })
	return eng, c
}

// configure programs a cluster whose completion calls done.
func (c *testCore) configure(key ClusterKey, candidates, vecBytes int, done func(at sim.Tick)) {
	c.done = append(c.done, done)
	c.ConfigureTok(key, candidates, vecBytes, int32(len(c.done)-1))
}

// narrowConfig pins a single-lane 16 B/cycle datapath so cycle-exact
// assertions are independent of the default aggregate width.
func narrowConfig() Config {
	cfg := DefaultConfig()
	cfg.BytesPerCycle = 16
	cfg.Lanes = 1
	return cfg
}

func TestSingleClusterCompletes(t *testing.T) {
	eng, c := newCore(narrowConfig())
	var doneAt sim.Tick
	key := ClusterKey{SPID: 1, SumTag: 3}
	c.configure(key, 3, 64, func(at sim.Tick) { doneAt = at })
	for i := 0; i < 3; i++ {
		c.Data(key)
	}
	eng.Run()
	// 3 vectors of 64 B at 16 B/cycle = 4 ns each, back to back.
	if doneAt != 12 {
		t.Fatalf("completion at %d, want 12", doneAt)
	}
	st := c.Stats()
	if st.Completions != 1 || st.RowsFolded != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if c.ActiveClusters() != 0 {
		t.Fatal("cluster not retired")
	}
}

func TestRemainingCountsDown(t *testing.T) {
	eng, c := newCore(DefaultConfig())
	key := ClusterKey{SPID: 1, SumTag: 1}
	c.configure(key, 2, 64, func(sim.Tick) {})
	if c.Remaining(key) != 2 {
		t.Fatal("initial remaining wrong")
	}
	c.Data(key)
	if c.Remaining(key) != 1 {
		t.Fatal("remaining did not decrement")
	}
	c.Data(key)
	if c.Remaining(key) != -1 {
		t.Fatal("completed cluster still reported")
	}
	eng.Run()
}

func TestOoOFasterThanInOrderOnInterleavedTags(t *testing.T) {
	run := func(ooo bool) sim.Tick {
		cfg := narrowConfig()
		cfg.OoO = ooo
		eng, c := newCore(cfg)
		var last sim.Tick
		a := ClusterKey{SPID: 1, SumTag: 0}
		b := ClusterKey{SPID: 1, SumTag: 1}
		c.configure(a, 8, 64, func(at sim.Tick) {
			if at > last {
				last = at
			}
		})
		c.configure(b, 8, 64, func(at sim.Tick) {
			if at > last {
				last = at
			}
		})
		// Worst case: strictly alternating arrivals.
		for i := 0; i < 8; i++ {
			c.Data(a)
			c.Data(b)
		}
		eng.Run()
		return last
	}
	inOrder := run(false)
	ooo := run(true)
	if ooo >= inOrder {
		t.Fatalf("OoO (%d ns) not faster than in-order (%d ns)", ooo, inOrder)
	}
}

func TestInOrderStallsCounted(t *testing.T) {
	cfg := narrowConfig()
	cfg.OoO = false
	eng, c := newCore(cfg)
	a := ClusterKey{SumTag: 0}
	b := ClusterKey{SumTag: 1}
	c.configure(a, 2, 64, func(sim.Tick) {})
	c.configure(b, 2, 64, func(sim.Tick) {})
	c.Data(a)
	c.Data(b) // switch 1
	c.Data(a) // switch 2; completes a, freeing the register
	c.Data(b) // register free after completion: no switch charged
	eng.Run()
	st := c.Stats()
	if st.TagSwitches != 2 || st.InOrderStalls != 2 {
		t.Fatalf("stats = %+v, want 2 switches and 2 stalls", st)
	}
}

func TestSwapSpillBeyondRegisters(t *testing.T) {
	cfg := narrowConfig()
	cfg.SwapRegisters = 2
	eng, c := newCore(cfg)
	keys := make([]ClusterKey, 4)
	for i := range keys {
		keys[i] = ClusterKey{SumTag: uint8(i)}
		c.configure(keys[i], 4, 64, func(sim.Tick) {})
	}
	// Round-robin across 4 clusters with only 2 swap registers.
	for round := 0; round < 4; round++ {
		for _, k := range keys {
			c.Data(k)
		}
	}
	eng.Run()
	st := c.Stats()
	if st.SwapSpills == 0 {
		t.Fatal("no swap spills with more clusters than registers")
	}
	if st.Completions != 4 {
		t.Fatalf("completions = %d, want 4", st.Completions)
	}
}

func TestACRBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ACRCapacity = 2
	eng, c := newCore(cfg)
	done := 0
	for i := 0; i < 5; i++ {
		key := ClusterKey{SumTag: uint8(i)}
		c.configure(key, 1, 64, func(sim.Tick) { done++ })
	}
	if c.ActiveClusters() != 2 || c.PendingConfigures() != 3 {
		t.Fatalf("active=%d pending=%d, want 2/3", c.ActiveClusters(), c.PendingConfigures())
	}
	if c.Stats().Backpressured != 3 {
		t.Fatalf("backpressured = %d, want 3", c.Stats().Backpressured)
	}
	// Drain: complete active clusters; queued ones must admit FIFO.
	for i := 0; i < 5; i++ {
		// Only active clusters can receive data.
		for tag := 0; tag < 5; tag++ {
			key := ClusterKey{SumTag: uint8(tag)}
			if c.Remaining(key) > 0 {
				c.Data(key)
			}
		}
		eng.Run()
	}
	if done != 5 {
		t.Fatalf("completions = %d, want 5", done)
	}
}

func TestLargerVectorsCostMoreCycles(t *testing.T) {
	eng, c := newCore(narrowConfig())
	var done64, done256 sim.Tick
	k64 := ClusterKey{SumTag: 0}
	c.configure(k64, 1, 64, func(at sim.Tick) { done64 = at })
	c.Data(k64)
	eng.Run()

	eng2, c2 := newCore(narrowConfig())
	k256 := ClusterKey{SumTag: 0}
	c2.configure(k256, 1, 256, func(at sim.Tick) { done256 = at })
	c2.Data(k256)
	eng2.Run()

	if done64 != 4 || done256 != 16 {
		t.Fatalf("64B=%d ns 256B=%d ns, want 4/16", done64, done256)
	}
}

func TestMultiHostClustersDoNotCollide(t *testing.T) {
	eng, c := newCore(DefaultConfig())
	// Same sumtag from two hosts must be independent clusters.
	h1 := ClusterKey{SPID: 1, SumTag: 5}
	h2 := ClusterKey{SPID: 2, SumTag: 5}
	var d1, d2 bool
	c.configure(h1, 1, 64, func(sim.Tick) { d1 = true })
	c.configure(h2, 2, 64, func(sim.Tick) { d2 = true })
	c.Data(h1)
	eng.Run()
	if !d1 || d2 {
		t.Fatalf("cluster isolation broken: d1=%v d2=%v", d1, d2)
	}
	c.Data(h2)
	c.Data(h2)
	eng.Run()
	if !d2 {
		t.Fatal("second host's cluster never completed")
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	cases := []func(*testCore){
		func(c *testCore) { c.configure(ClusterKey{}, 0, 64, func(sim.Tick) {}) },
		func(c *testCore) { c.configure(ClusterKey{}, 1, 15, func(sim.Tick) {}) },
		func(c *testCore) { c.SetCompletionSink(nil); c.ConfigureTok(ClusterKey{}, 1, 64, 0) },
		func(c *testCore) { c.Data(ClusterKey{SumTag: 9}) },
		func(c *testCore) {
			c.configure(ClusterKey{}, 1, 64, func(sim.Tick) {})
			c.configure(ClusterKey{}, 1, 64, func(sim.Tick) {})
		},
	}
	for i, f := range cases {
		_, c := newCore(DefaultConfig())
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: misuse did not panic", i)
				}
			}()
			f(c)
		}()
	}
}

func TestThroughputSaturatesDatapath(t *testing.T) {
	// 1000 64 B vectors at 16 B/cycle, 1 ns clock: exactly 4000 ns busy
	// when all belong to one cluster (no switches).
	eng, c := newCore(narrowConfig())
	key := ClusterKey{SumTag: 1}
	var done sim.Tick
	c.configure(key, 1000, 64, func(at sim.Tick) { done = at })
	for i := 0; i < 1000; i++ {
		c.Data(key)
	}
	eng.Run()
	if done != 4000 {
		t.Fatalf("1000 vectors done at %d ns, want 4000", done)
	}
}
