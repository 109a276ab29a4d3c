package engine

import (
	"fmt"
	"runtime"
	"testing"

	"pifsrec/internal/dlrm"
	"pifsrec/internal/sim"
	"pifsrec/internal/trace"
)

// BenchmarkBagDispatch measures one steady-state pass of the whole trace
// through the zero-scratch dispatch path (runBag classification, per-tag
// scratch, value-typed link messages, pooled completions). Allocs/op must be
// 0 once warm.
func BenchmarkBagDispatch(b *testing.B) {
	s, cycle := buildSteady(b, 1)
	bags := 0
	for _, h := range s.hosts {
		bags += len(h.bags)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bags), "ns/bag")
}

// BenchmarkShardedBigConfig runs one Fig 13a-class configuration (PIFS-Rec,
// Zipfian trace, 8 devices, short epochs) at increasing shard counts. The
// tables are byte-identical at every count; the wall-clock ratio between
// sub-benchmarks is the intra-simulation scaling this PR adds. On a
// single-core runner the >1 shard rows only measure windowing overhead.
func BenchmarkShardedBigConfig(b *testing.B) {
	m := dlrm.RMC4().Scaled(64)
	tr, err := trace.Generate(trace.Spec{
		Kind: trace.Zipfian, Tables: m.Tables, RowsPerTable: m.EmbRows,
		Batches: 6, BatchSize: 4, BagSize: 32, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	for _, n := range counts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			cfg := Config{
				Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3,
				Devices: 8, EpochBags: 16, Shards: n,
			}
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Placement matrix at 4 shards: the static cost-balanced default
	// (PlaceGroups) against round-robin dealing and a worst-case
	// single-worker pile-up. Tables are byte-identical across rows; the
	// wall-clock ratios are what the cost model buys.
	placements := []struct {
		name   string
		policy sim.PlacementPolicy
	}{
		{"balanced", nil},
		{"round-robin", func(weights []float64, workers int) []int32 {
			out := make([]int32, len(weights))
			for g := range out {
				out[g] = int32(g % workers)
			}
			return out
		}},
		{"one-worker", func(weights []float64, _ int) []int32 { return make([]int32, len(weights)) }},
	}
	for _, pl := range placements {
		b.Run(fmt.Sprintf("shards=4/place=%s", pl.name), func(b *testing.B) {
			cfg := Config{
				Scheme: PIFSRec, Model: m, Trace: tr, Seed: 3,
				Devices: 8, EpochBags: 16, Shards: 4,
			}
			for i := 0; i < b.N; i++ {
				if _, err := runPlaced(cfg, pl.policy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
