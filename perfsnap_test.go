package pifsrec

// TestWriteBenchSnapshot regenerates BENCH_10.json, the machine-readable
// perf snapshot of the simulator itself (event-kernel throughput, request-
// path allocation behavior, sharded-kernel scaling, placement-matrix
// wall-clocks, figure wall-clocks, result-cache memoization wall-clocks,
// distributed-sweep wall-clocks, vectorized-math kernels, numasim model
// parity, open-loop latency-sweep tail matrix). It only runs when
// explicitly requested, because it spends bench time:
//
//	BENCH_SNAPSHOT=1 go test -run TestWriteBenchSnapshot -timeout 30m .
//
// The committed BENCH_10.json records the numbers behind ROADMAP.md's perf
// trajectory; regenerate it when landing a performance PR.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"

	"time"

	"pifsrec/internal/dlrm"
	"pifsrec/internal/engine"
	"pifsrec/internal/harness"
	"pifsrec/internal/memo"
	"pifsrec/internal/numasim"
	"pifsrec/internal/scenario"
	"pifsrec/internal/serve"
	"pifsrec/internal/sim"
	"pifsrec/internal/trace"
	"pifsrec/internal/vecmath"
)

type benchLine struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
}

type benchSnapshot struct {
	PR          int    `json:"pr"`
	Command     string `json:"command"`
	Go          string `json:"go"`
	CPU         string `json:"cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	EventKernel struct {
		NsPerEvent   float64 `json:"ns_per_event"`
		EventsPerSec float64 `json:"events_per_sec"`
		AllocsPerOp  int64   `json:"allocs_per_op"`
	} `json:"event_kernel"`
	RequestPath struct {
		NsPerBag    float64 `json:"ns_per_bag"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		MBPerSec    float64 `json:"mb_per_sec"`
	} `json:"request_path"`
	DeepQueueDrainNs float64              `json:"deep_queue_drain_ns"`
	Vecmath          map[string]benchLine `json:"vecmath"`
	FigureWallMs     map[string]float64   `json:"figure_wall_ms"`
	SimNsPerBag      map[string]float64   `json:"sim_ns_per_bag"`
	// ShardedWallMs is a Fig 13a-class single configuration (PIFS-Rec,
	// Zipfian, 8 devices, short epochs) run at increasing shard counts;
	// tables are byte-identical across rows, so the ratios are pure
	// wall-clock scaling. Meaningful only when GOMAXPROCS covers the shard
	// count.
	ShardedWallMs map[string]float64 `json:"sharded_wall_ms"`
	// PlacementWallMs is the same configuration at 4 shards under the
	// cost-balanced dynamic default, static round-robin (PR 3's dealing),
	// and a worst-case one-worker pile-up; byte-identical tables, pure
	// scheduling ratios.
	PlacementWallMs map[string]float64 `json:"placement_wall_ms"`
	// ShardSched is the scheduling-quality matrix on the multi-switch
	// affinity-gate configuration (2 hosts, 2 switches, 8 devices): per
	// "shards=N/MODE" cell, the cross-shard envelope count (mailbox hops
	// between workers), total envelopes, windows run/elided, and wall-clock.
	// Results are byte-identical across every cell; only scheduling differs.
	ShardSched map[string]schedCell `json:"shard_sched"`
	// NumasimParityWorstPct is the worst |event-analytic|/analytic AppGBs
	// delta across the full numasim seed sweep, in percent.
	NumasimParityWorstPct float64 `json:"numasim_parity_worst_pct"`
	// LatencyTail is the open-loop latency-sweep matrix: per
	// "scheme/kind/load%" cell, the arrival-to-completion tail quantiles and
	// goodput under an SLO of 2x the scheme's unloaded p99. Loads are
	// fractions of each scheme's own closed-loop capacity; the knee —
	// bounded tails below capacity, unbounded queueing above — is the
	// behavior the closed-loop figure rows structurally cannot show.
	LatencyTail map[string]latencyCell `json:"latency_tail"`
	// Memo is the content-addressed result cache: per-sweep cold vs warm
	// (all-hit) wall-clock, the incremental cost of re-running a sweep with
	// exactly one config edited, and the key/store micro-costs.
	Memo struct {
		ColdWallMs       map[string]float64 `json:"cold_wall_ms"`
		WarmWallMs       map[string]float64 `json:"warm_wall_ms"`
		WarmSpeedup      map[string]float64 `json:"warm_speedup"`
		OneChangedWallMs map[string]float64 `json:"one_changed_wall_ms"`
		HashNsPerConfig  float64            `json:"hash_ns_per_config"`
		StoreRoundTripNs float64            `json:"store_roundtrip_ns_per_entry"`
	} `json:"memo"`
	// Dist is distributed sweep execution: per experiment, the local
	// single-process wall-clock vs a coordinator with two in-process pull
	// workers, cold (workers simulate everything) and warm (same worker
	// caches, fresh coordinator cache — every job answers as a remote cache
	// hit, re-simulating nothing). One box, so cold distribution measures
	// pure overhead (lease/post round-trips, framing, gzip), not speedup.
	Dist map[string]distCell `json:"dist"`
}

type distCell struct {
	LocalWallMs    float64 `json:"local_wall_ms"`
	DistColdWallMs float64 `json:"dist_cold_wall_ms"`
	DistWarmWallMs float64 `json:"dist_warm_wall_ms"`
	Jobs           int64   `json:"jobs"`
	WarmCacheHits  int64   `json:"warm_remote_cache_hits"`
	WarmSimulated  int64   `json:"warm_remote_simulated"`
}

type latencyCell struct {
	OfferedQPS float64 `json:"offered_qps"`
	MeanNS     float64 `json:"mean_ns"`
	P50NS      int64   `json:"p50_ns"`
	P95NS      int64   `json:"p95_ns"`
	P99NS      int64   `json:"p99_ns"`
	P999NS     int64   `json:"p999_ns"`
	GoodputQPS float64 `json:"goodput_qps"`
}

type schedCell struct {
	CrossShardEnvelopes int64   `json:"cross_shard_envelopes"`
	Envelopes           int64   `json:"envelopes"`
	WindowsRun          int64   `json:"windows_run"`
	WindowsElided       int64   `json:"windows_elided"`
	WallMs              float64 `json:"wall_ms"`
}

func toLine(r testing.BenchmarkResult) benchLine {
	l := benchLine{NsPerOp: float64(r.NsPerOp()), AllocsPerOp: r.AllocsPerOp()}
	if r.Bytes > 0 && r.T > 0 {
		l.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
	}
	return l
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, after, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(after)
			}
		}
	}
	return runtime.GOARCH
}

func TestWriteBenchSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to regenerate BENCH_10.json")
	}

	var snap benchSnapshot
	snap.PR = 10
	snap.Command = "BENCH_SNAPSHOT=1 go test -run TestWriteBenchSnapshot -timeout 30m ."
	snap.Go = runtime.Version()
	snap.CPU = cpuModel()
	snap.GOMAXPROCS = runtime.GOMAXPROCS(0)

	ek := testing.Benchmark(BenchmarkEngineSchedule)
	snap.EventKernel.NsPerEvent = float64(ek.NsPerOp())
	snap.EventKernel.EventsPerSec = 1e9 / float64(ek.NsPerOp())
	snap.EventKernel.AllocsPerOp = ek.AllocsPerOp()

	rp := testing.Benchmark(BenchmarkDRAMRequestPath)
	line := toLine(rp)
	snap.RequestPath.NsPerBag = line.NsPerOp
	snap.RequestPath.AllocsPerOp = line.AllocsPerOp
	snap.RequestPath.MBPerSec = line.MBPerSec

	snap.DeepQueueDrainNs = float64(testing.Benchmark(BenchmarkDRAMDeepQueue).NsPerOp())

	snap.Vecmath = map[string]benchLine{
		"sls_math_dim64": toLine(testing.Benchmark(BenchmarkSLSMath)),
		"dot128": toLine(testing.Benchmark(func(b *testing.B) {
			x, y := make([]float32, 128), make([]float32, 128)
			for i := range x {
				x[i] = float32(i) * 0.25
				y[i] = float32(128-i) * 0.5
			}
			b.SetBytes(2 * 4 * 128)
			b.ReportAllocs()
			var sink float32
			for i := 0; i < b.N; i++ {
				sink += vecmath.Dot(x, y)
			}
			_ = sink
		})),
		"inference": toLine(testing.Benchmark(BenchmarkInference)),
	}

	snap.FigureWallMs = map[string]float64{}
	for _, id := range []string{"fig12a", "fig12b", "fig13a", "fault-sweep", "latency-knee"} {
		id := id
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := harness.Run(id, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		snap.FigureWallMs[id] = float64(r.NsPerOp()) / 1e6
	}

	// Simulated ns/bag per scheme on the default configuration — the
	// model-level numbers the figures are built from.
	snap.SimNsPerBag = map[string]float64{}
	m := dlrm.RMC4().Scaled(64)
	tr, err := trace.Generate(trace.Spec{
		Kind: trace.MetaLike, Tables: m.Tables, RowsPerTable: m.EmbRows,
		Batches: 2, BatchSize: 4, BagSize: 32, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range engine.Schemes() {
		res, err := engine.Run(engine.Config{Scheme: s, Model: m, Trace: tr, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		snap.SimNsPerBag[string(s)] = res.NSPerBag
	}

	// Sharded-kernel scaling on a Fig 13a-class single configuration.
	snap.ShardedWallMs = map[string]float64{}
	bigTr, err := trace.Generate(trace.Spec{
		Kind: trace.Zipfian, Tables: m.Tables, RowsPerTable: m.EmbRows,
		Batches: 6, BatchSize: 4, BagSize: 32, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	for _, n := range counts {
		n := n
		r := testing.Benchmark(func(b *testing.B) {
			cfg := engine.Config{Scheme: engine.PIFSRec, Model: m, Trace: bigTr,
				Seed: 3, Devices: 8, EpochBags: 16, Shards: n}
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		snap.ShardedWallMs[fmt.Sprintf("shards=%d", n)] = float64(r.NsPerOp()) / 1e6
	}

	// Placement matrix at 4 shards.
	snap.PlacementWallMs = map[string]float64{}
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
		pl := pl
		r := testing.Benchmark(func(b *testing.B) {
			cfg := engine.Config{Scheme: engine.PIFSRec, Model: m, Trace: bigTr,
				Seed: 3, Devices: 8, EpochBags: 16, Shards: 4, Placement: pl.policy}
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		snap.PlacementWallMs[pl.name] = float64(r.NsPerOp()) / 1e6
	}

	// Scheduling-quality matrix: cross-shard hop counts and elision stats on
	// the multi-switch affinity-gate configuration, per shard count and
	// placement flavor.
	snap.ShardSched = map[string]schedCell{}
	gateTr, err := trace.Generate(trace.Spec{
		Kind: trace.MetaLike, Tables: m.Tables, RowsPerTable: m.EmbRows,
		Batches: 2, BatchSize: 4, BagSize: 16, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		for _, mode := range []string{"affinity", "weight"} {
			cfg := engine.Config{Scheme: engine.PIFSRec, Model: m, Trace: gateTr,
				Seed: 3, Switches: 2, Devices: 8, Hosts: 2, HostParallelism: 8,
				Shards: n, PlacementMode: mode}
			res, err := engine.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			br := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := engine.Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			snap.ShardSched[fmt.Sprintf("shards=%d/%s", n, mode)] = schedCell{
				CrossShardEnvelopes: res.Sched.CrossShardEnvelopes,
				Envelopes:           res.Sched.Envelopes,
				WindowsRun:          res.Sched.WindowsRun,
				WindowsElided:       res.Sched.WindowsElided,
				WallMs:              float64(br.NsPerOp()) / 1e6,
			}
		}
	}

	// Open-loop latency-sweep tail matrix (the latency-sweep experiment's
	// numbers in machine-readable form): capacity-probe each scheme closed-
	// loop, measure its unloaded tail at 25% load, then sweep Poisson and
	// diurnal arrivals below, near, and past the knee.
	snap.LatencyTail = map[string]latencyCell{}
	latTr, err := trace.Generate(trace.Spec{
		Kind: trace.MetaLike, Tables: m.Tables, RowsPerTable: m.EmbRows,
		Batches: 16, BatchSize: 4, BagSize: 32, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []engine.Scheme{engine.Pond, engine.RecNMP, engine.PIFSRec} {
		base := engine.Config{Scheme: s, Model: m, Trace: latTr, Seed: 3}
		clean, err := engine.Run(base)
		if err != nil {
			t.Fatal(err)
		}
		capQPS := float64(clean.Bags) / float64(clean.TotalNS) * 1e9
		openLoop := func(sp scenario.Spec) scenario.LatencyReport {
			cfg := base
			cfg.Scenario = &sp
			res, err := engine.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Latency
		}
		probe := openLoop(scenario.Spec{Kind: scenario.Poisson, QPS: math.Round(0.25 * capQPS), Seed: 13})
		slo := 2 * probe.P99NS
		for _, kind := range []scenario.Kind{scenario.Poisson, scenario.Diurnal} {
			for _, load := range []float64{0.5, 0.8, 1.1} {
				lat := openLoop(scenario.Spec{
					Kind: kind, QPS: math.Round(load * capQPS), SLONS: slo, Seed: 13,
				})
				snap.LatencyTail[fmt.Sprintf("%s/%s/%.0f%%", s, kind, load*100)] = latencyCell{
					OfferedQPS: lat.OfferedQPS,
					MeanNS:     lat.MeanNS,
					P50NS:      lat.P50NS,
					P95NS:      lat.P95NS,
					P99NS:      lat.P99NS,
					P999NS:     lat.P999NS,
					GoodputQPS: lat.GoodputQPS,
				}
			}
		}
	}

	// Numasim model parity (the analytic model Fig 5/6 use against the
	// event-driven one) — the same figure the numasim-parity experiment
	// note prints.
	worst, err := numasim.WorstSeedParityPct(numasim.Genoa())
	if err != nil {
		t.Fatal(err)
	}
	snap.NumasimParityWorstPct = worst

	// Result-cache memoization: cold sweep, all-hit warm sweep, and the
	// incremental re-run after editing exactly one config.
	snap.Memo.ColdWallMs = map[string]float64{}
	snap.Memo.WarmWallMs = map[string]float64{}
	snap.Memo.WarmSpeedup = map[string]float64{}
	snap.Memo.OneChangedWallMs = map[string]float64{}
	for _, id := range []string{"fig12a", "fig13a"} {
		store, err := memo.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		prev := harness.SetStore(store)

		start := time.Now()
		if err := harness.Run(id, io.Discard); err != nil {
			t.Fatal(err)
		}
		cold := time.Since(start)
		snap.Memo.ColdWallMs[id] = float64(cold.Nanoseconds()) / 1e6

		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := harness.Run(id, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		snap.Memo.WarmWallMs[id] = float64(r.NsPerOp()) / 1e6
		snap.Memo.WarmSpeedup[id] = float64(cold.Nanoseconds()) / float64(r.NsPerOp())

		// Edit one config (seed bump) and re-run the sweep: exactly one
		// simulation plus len-1 cache hits.
		jobs := harness.Jobs(id)
		edited := *jobs[0].Engine
		edited.Seed += 1000
		jobs[0].Engine = &edited
		start = time.Now()
		harness.DefaultRunner().RunJobs(jobs)
		snap.Memo.OneChangedWallMs[id] = float64(time.Since(start).Nanoseconds()) / 1e6

		harness.SetStore(prev)
	}

	// Key derivation cost: canonical encoding + SHA-256 for one engine job.
	hashJobs := harness.Jobs("fig12a")
	hr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hashJobs[i%len(hashJobs)].Hash(); err != nil {
				b.Fatal(err)
			}
		}
	})
	snap.Memo.HashNsPerConfig = float64(hr.NsPerOp())

	// Store round trip: encode/Put + Get/decode of a realistic entry.
	rtStore, err := memo.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rtStore.SetLRUBytes(0) // force the disk path, the cold-start cost
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	rr := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := memo.New(fmt.Sprintf("rt-%d", i%1024)).Sum()
			if err := rtStore.Put(h, payload); err != nil {
				b.Fatal(err)
			}
			if _, ok := rtStore.Get(h); !ok {
				b.Fatal("round-trip miss")
			}
		}
	})
	snap.Memo.StoreRoundTripNs = float64(rr.NsPerOp())

	// Distributed sweeps: coordinator + two in-process pull workers over a
	// loopback HTTP server, against the local single-process baseline.
	snap.Dist = map[string]distCell{}
	for _, id := range []string{"fig12a", "fig13a"} {
		prevStore := harness.SetStore(nil)
		start := time.Now()
		if err := harness.Run(id, io.Discard); err != nil {
			t.Fatal(err)
		}
		local := time.Since(start)
		harness.SetStore(prevStore)

		// Both workers share one persistent store (a shared cache volume):
		// the warm run then answers every job from cache no matter which
		// worker wins each lease, so dist_warm_wall_ms is the pure
		// distribution overhead (lease + wire + gather), zero simulation.
		shared := memo.InMemory()
		workerStores := []*memo.Store{shared, shared}
		distRun := func() (float64, serve.DistStats) {
			c := serve.NewCoordinator(serve.CoordinatorConfig{
				LeaseTTL:    10 * time.Second,
				ClaimBudget: 10 * time.Second,
			})
			prevStore := harness.SetStore(memo.InMemory())
			prevDist := c.Install()
			srv := httptest.NewServer(serve.Handler(serve.Options{Coordinator: c}))
			ctx, cancel := context.WithCancel(context.Background())
			dones := make([]chan struct{}, len(workerStores))
			for i, st := range workerStores {
				done := make(chan struct{})
				dones[i] = done
				go func() {
					defer close(done)
					serve.RunWorker(ctx, serve.WorkerConfig{
						Coordinator: srv.URL,
						ID:          fmt.Sprintf("bench-w%d", i),
						Store:       st,
						Poll:        50 * time.Millisecond,
					})
				}()
			}
			for c.Stats().LiveWorkers < len(workerStores) {
				time.Sleep(5 * time.Millisecond)
			}
			start := time.Now()
			resp, err := http.Get(srv.URL + "/v1/run?id=" + id)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			wall := time.Since(start)
			cancel()
			for _, d := range dones {
				<-d
			}
			srv.Close()
			harness.SetStore(prevStore)
			harness.SetDistributor(prevDist)
			return float64(wall.Nanoseconds()) / 1e6, c.Stats()
		}
		cold, _ := distRun()
		warm, warmStats := distRun()
		snap.Dist[id] = distCell{
			LocalWallMs:    float64(local.Nanoseconds()) / 1e6,
			DistColdWallMs: cold,
			DistWarmWallMs: warm,
			Jobs:           warmStats.Published,
			WarmCacheHits:  warmStats.RemoteCacheHits,
			WarmSimulated:  warmStats.RemoteSimulated,
		}
	}

	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_10.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote BENCH_10.json: %.1fM events/sec, warm fig13a %.1fx over cold, dist fig13a %.0f/%.0f/%.0f ms local/cold/warm\n",
		snap.EventKernel.EventsPerSec/1e6, snap.Memo.WarmSpeedup["fig13a"],
		snap.Dist["fig13a"].LocalWallMs, snap.Dist["fig13a"].DistColdWallMs, snap.Dist["fig13a"].DistWarmWallMs)
}
