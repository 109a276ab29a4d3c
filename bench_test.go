package pifsrec

// Benchmark targets, one per table/figure of the paper's evaluation. Each
// BenchmarkFigNN regenerates the corresponding experiment through the
// harness (the same code cmd/pifsbench runs); the micro-benchmarks at the
// bottom exercise the hot paths of the substrate packages.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// and a single figure with e.g.:
//
//	go test -bench=BenchmarkFig12a

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"pifsrec/internal/dlrm"
	"pifsrec/internal/dram"
	"pifsrec/internal/engine"
	"pifsrec/internal/harness"
	"pifsrec/internal/osb"
	"pifsrec/internal/pifs"
	"pifsrec/internal/sim"
	"pifsrec/internal/trace"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := harness.Run(id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Characterization figures (§III).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// Main evaluation (§VI-C).
func BenchmarkFig12a(b *testing.B) { benchExperiment(b, "fig12a") }
func BenchmarkFig12b(b *testing.B) { benchExperiment(b, "fig12b") }
func BenchmarkFig12c(b *testing.B) { benchExperiment(b, "fig12c") }
func BenchmarkFig12d(b *testing.B) { benchExperiment(b, "fig12d") }
func BenchmarkFig12e(b *testing.B) { benchExperiment(b, "fig12e") }
func BenchmarkFig13a(b *testing.B) { benchExperiment(b, "fig13a") }
func BenchmarkFig13b(b *testing.B) { benchExperiment(b, "fig13b") }
func BenchmarkFig13c(b *testing.B) { benchExperiment(b, "fig13c") }
func BenchmarkFig13d(b *testing.B) { benchExperiment(b, "fig13d") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }

// Cost, throughput, and hardware overheads (§VI-D/E).
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B) { benchExperiment(b, "fig18") }

// Ablations beyond the paper's figures.
func BenchmarkAblationInterleave(b *testing.B) { benchExperiment(b, "ablation-interleave") }
func BenchmarkAblationMigration(b *testing.B)  { benchExperiment(b, "ablation-migration") }

// BenchmarkSchemes measures simulated SLS cost per scheme on the default
// configuration, reporting the simulated ns/bag alongside wall time.
func BenchmarkSchemes(b *testing.B) {
	model := dlrm.RMC4().Scaled(64)
	tr, err := trace.Generate(trace.Spec{
		Kind: trace.MetaLike, Tables: model.Tables, RowsPerTable: model.EmbRows,
		Batches: 2, BatchSize: 4, BagSize: 32, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, scheme := range engine.Schemes() {
		b.Run(string(scheme), func(b *testing.B) {
			var last engine.Result
			for i := 0; i < b.N; i++ {
				last, err = engine.Run(engine.Config{Scheme: scheme, Model: model, Trace: tr, Seed: 3})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.NSPerBag, "simNs/bag")
		})
	}
}

// Substrate micro-benchmarks.

// BenchmarkEngineSchedule measures steady-state event kernel throughput: a
// pool of self-rescheduling timers, one schedule per fire. In the dense case
// the periods mix near (calendar ring, 1-13 ticks) and far (heap) timers, so
// nearly every tick holds an event. In the sparse case the periods span
// 200-4000 ticks, all inside the ring, so about 20 empty ticks separate
// consecutive events and finding the next one is most of the work.
// Allocs/op must be 0 once the arena is warm.
func BenchmarkEngineSchedule(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		benchTimers(b, func(k int) sim.Tick {
			if k%8 == 0 {
				return 5000 + sim.Tick(k) // beyond the ring horizon: heap path
			}
			return sim.Tick(1 + k%13)
		})
	})
	b.Run("sparse", func(b *testing.B) {
		benchTimers(b, func(k int) sim.Tick { return 200 + sim.Tick(k)*3800/63 })
	})
}

// benchTimers runs 64 self-rescheduling timers, timer k with period(k),
// until b.N events have fired.
func benchTimers(b *testing.B, period func(k int) sim.Tick) {
	eng := sim.NewEngine()
	remaining := b.N
	const timers = 64
	for k := 0; k < timers; k++ {
		period := period(k)
		var fn func()
		fn = func() {
			remaining--
			if remaining > 0 {
				eng.After(period, fn)
			}
		}
		eng.After(period, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for eng.Step() {
	}
	if eng.Fired() < uint64(b.N) {
		b.Fatalf("fired %d events, want >= %d", eng.Fired(), b.N)
	}
}

// heapEvent/heapQueue/heapKernel reproduce the pre-calendar container/heap
// kernel (one *Event allocation per schedule) as the benchmark baseline.
type heapEvent struct {
	at   sim.Tick
	seq  uint64
	fn   func()
	heap int
}

type heapQueue []*heapEvent

func (h heapQueue) Len() int { return len(h) }
func (h heapQueue) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h heapQueue) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heap = i
	h[j].heap = j
}
func (h *heapQueue) Push(x any) {
	e := x.(*heapEvent)
	e.heap = len(*h)
	*h = append(*h, e)
}
func (h *heapQueue) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.heap = -1
	*h = old[:n-1]
	return e
}

type heapKernel struct {
	now   sim.Tick
	seq   uint64
	queue heapQueue
}

func (k *heapKernel) after(d sim.Tick, fn func()) {
	heap.Push(&k.queue, &heapEvent{at: k.now + d, seq: k.seq, fn: fn})
	k.seq++
}

func (k *heapKernel) step() bool {
	if len(k.queue) == 0 {
		return false
	}
	ev := heap.Pop(&k.queue).(*heapEvent)
	k.now = ev.at
	ev.fn()
	return true
}

// BenchmarkEngineScheduleHeapBaseline runs the dense timer workload on the
// container/heap kernel this repository used before the calendar queue; the
// ratio to BenchmarkEngineSchedule/dense is the kernel speedup.
func BenchmarkEngineScheduleHeapBaseline(b *testing.B) {
	k := &heapKernel{}
	remaining := b.N
	const timers = 64
	for t := 0; t < timers; t++ {
		period := sim.Tick(1 + t%13)
		if t%8 == 0 {
			period = 5000 + sim.Tick(t)
		}
		var fn func()
		fn = func() {
			remaining--
			if remaining > 0 {
				k.after(period, fn)
			}
		}
		k.after(period, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k.step() {
	}
}

// BenchmarkEngineCancel measures schedule+cancel cycles across both queue
// structures; steady-state allocs/op must be 0 (slots recycle through the
// free list).
func BenchmarkEngineCancel(b *testing.B) {
	eng := sim.NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := sim.Tick(5 + i%128)
		if i%4 == 0 {
			d += 100000 // heap resident
		}
		ev := eng.After(d, fn)
		eng.Cancel(ev)
	}
	if eng.Pending() != 0 {
		b.Fatalf("Pending = %d after cancelling everything", eng.Pending())
	}
}

// BenchmarkHarnessParallel measures the worker-pool fan-out on a scheme x
// trace-kind sweep (the Fig12b configuration matrix); the serial sub-bench
// is the baseline the pool speedup is read against.
func BenchmarkHarnessParallel(b *testing.B) {
	m := dlrm.RMC4().Scaled(64)
	var cfgs []engine.Config
	for _, kind := range trace.Kinds() {
		tr, err := trace.Generate(trace.Spec{
			Kind: kind, Tables: m.Tables, RowsPerTable: m.EmbRows,
			Batches: 2, BatchSize: 4, BagSize: 32, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range engine.Schemes() {
			cfgs = append(cfgs, engine.Config{Scheme: s, Model: m, Trace: tr, Seed: 3})
		}
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := harness.NewRunner(workers)
			for i := 0; i < b.N; i++ {
				if res := r.RunConfigs(cfgs); len(res) != len(cfgs) {
					b.Fatal("short result set")
				}
			}
		})
	}
}

func BenchmarkDRAMStreaming(b *testing.B) {
	geo := dram.Table2Geometry()
	tim := dram.DDR5_4800()
	done := func(int32, sim.Tick) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		c := dram.NewController(eng, geo, tim)
		for r := 0; r < 1000; r++ {
			c.SubmitRange(uint64(r*64), 64, false, 0, done, 0)
		}
		eng.Run()
	}
}

// BenchmarkDRAMRandom drains 1000 single-line reads at random addresses on a
// fresh controller: a Table II device with 64 B interleave, and the host's
// 12-channel DDR5 with 4096 B interleave (engine's localGeometry), whose
// channel count is not a power of two.
func BenchmarkDRAMRandom(b *testing.B) {
	for _, tc := range []struct {
		name string
		geo  dram.Geometry
		tim  dram.Timing
	}{
		{"table2", dram.Table2Geometry(), dram.DDR4_3200()},
		{"host-12ch", dram.Geometry{Channels: 12, Ranks: 2, BankGroups: 4, Banks: 4,
			Rows: 1 << 12, RowBytes: 8192, InterleaveBytes: 4096}, dram.DDR5_4800()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := sim.NewRNG(1)
			addrs := make([]uint64, 1000)
			for i := range addrs {
				addrs[i] = (rng.Uint64() % uint64(tc.geo.Capacity())) &^ 63
			}
			done := func(int32, sim.Tick) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				c := dram.NewController(eng, tc.geo, tc.tim)
				for _, a := range addrs {
					c.SubmitRange(a, 64, false, 0, done, 0)
				}
				eng.Run()
			}
		})
	}
}

// BenchmarkDRAMRequestPath measures the steady-state batched request path:
// one SubmitBatch per iteration (an SLS bag's worth of scattered row
// vectors) driven to completion. Besides a two-channel Table II device
// under sustained pressure, it runs the engine's shapes with 4096 B
// interleave and vector-aligned rows, as the engine lays them out: the
// host's 12-channel DDR5 (engine.localGeometry) and one 4-channel DDR4
// device (engine.deviceGeometry). Allocs/op must be 0 once the queues are
// warm — runs, batch slots, queue rings, and engine events all recycle.
func BenchmarkDRAMRequestPath(b *testing.B) {
	const rows = 32
	const vecBytes = 512
	for _, tc := range []struct {
		name  string
		geo   dram.Geometry
		tim   dram.Timing
		align uint64
	}{
		{"table2-2ch", Table2Geometry2ch(), dram.DDR5_4800(), 64},
		{"host-12ch", dram.Geometry{Channels: 12, Ranks: 2, BankGroups: 4, Banks: 4,
			Rows: 1 << 12, RowBytes: 8192, InterleaveBytes: 4096}, dram.DDR5_4800(), vecBytes},
		{"device-4ch", dram.Geometry{Channels: 4, Ranks: 2, BankGroups: 4, Banks: 4,
			Rows: 1 << 11, RowBytes: 8192, InterleaveBytes: 4096}, dram.DDR4_3200(), vecBytes},
	} {
		b.Run(tc.name, func(b *testing.B) {
			eng := sim.NewEngine()
			c := dram.NewController(eng, tc.geo, tc.tim)
			rng := sim.NewRNG(5)
			addrs := make([]uint64, rows)
			for i := range addrs {
				addrs[i] = (rng.Uint64() % uint64(tc.geo.Capacity()-vecBytes)) &^ (tc.align - 1)
			}
			done := func(int32, sim.Tick) {}
			c.SubmitBatch(addrs, vecBytes, false, 0, done, 0) // warm the queues
			eng.Run()
			b.ReportAllocs()
			b.SetBytes(rows * vecBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.SubmitBatch(addrs, vecBytes, false, 0, done, 0)
				eng.Run()
			}
		})
	}
}

// Table2Geometry2ch narrows the Table II device so the request-path bench
// keeps its channels under sustained pressure.
func Table2Geometry2ch() dram.Geometry {
	g := dram.Table2Geometry()
	g.Channels = 2
	return g
}

// BenchmarkDRAMDeepQueue drains one channel with thousands of queued
// requests: the regime where the old slice-based queue paid an O(n) tail
// copy per issued command and the ring queue pays a bounded shift.
func BenchmarkDRAMDeepQueue(b *testing.B) {
	geo := dram.Table2Geometry()
	geo.Channels = 1
	rng := sim.NewRNG(6)
	const n = 4096
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = (rng.Uint64() % uint64(geo.Capacity())) &^ 63
	}
	done := func(int32, sim.Tick) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewEngine()
		c := dram.NewController(eng, geo, dram.DDR4_3200())
		b.StartTimer()
		for _, a := range addrs {
			c.SubmitRange(a, 64, false, 0, done, 0)
		}
		eng.Run()
	}
}

func BenchmarkOSBAccess(b *testing.B) {
	for _, pol := range []osb.Policy{osb.HTR, osb.LRU, osb.FIFO} {
		b.Run(string(pol), func(b *testing.B) {
			buf := osb.New(512<<10, pol)
			rng := sim.NewRNG(2)
			z := sim.NewZipf(rng, 1<<16, 1.0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Access(uint64(z.Draw())*64, 64)
			}
		})
	}
}

// BenchmarkOSBInvalidateRange times one page migration's buffer work: drop
// a 4 KiB page of 64 B rows from a full 512 KB buffer, then refill it.
func BenchmarkOSBInvalidateRange(b *testing.B) {
	const page, pages = 4096, (512 << 10) / 4096
	for _, pol := range []osb.Policy{osb.HTR, osb.LRU, osb.FIFO} {
		b.Run(string(pol), func(b *testing.B) {
			buf := osb.New(512<<10, pol)
			fill := func(start uint64) {
				for a := start; a < start+page; a += 64 {
					buf.Access(a, 64)
				}
			}
			for p := uint64(0); p < pages; p++ {
				fill(p * page)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := uint64(i%pages) * page
				buf.InvalidateRange(start, start+page)
				fill(start)
			}
		})
	}
}

func BenchmarkProcessCore(b *testing.B) {
	eng := sim.NewEngine()
	core := pifs.New(eng, pifs.DefaultConfig())
	core.SetCompletionSink(func(int32, sim.Tick) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := pifs.ClusterKey{SPID: 1, SumTag: uint8(i % 64)}
		core.ConfigureTok(key, 1, 256, int32(i))
		core.Data(key)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

func BenchmarkTraceGeneration(b *testing.B) {
	for _, kind := range trace.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := trace.Generate(trace.Spec{
					Kind: kind, Tables: 8, RowsPerTable: 65536,
					Batches: 1, BatchSize: 16, BagSize: 32, Seed: uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceHash hashes the latency experiments' trace (Meta-like, 16
// tables x 16384 rows, 16 batches of 4: 1024 bags, 187 KB encoded), which
// every Job.Hash re-serializes through Trace.Write. allocs/op must not grow
// with the bag count.
func BenchmarkTraceHash(b *testing.B) {
	tr, err := trace.Generate(trace.Spec{
		Kind: trace.MetaLike, Tables: 16, RowsPerTable: 16384,
		Batches: 16, BatchSize: 4, BagSize: 32, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	var enc bytes.Buffer
	if err := tr.Write(&enc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(enc.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Hash(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeJobResult decodes a cached result of about 1 KB, the
// closed-loop PIFS-Rec run that latency-knee starts with. compact is its
// EncodeJobResult payload, which the compact reader takes; indented is the
// same entry indented, which goes to json.Unmarshal.
func BenchmarkDecodeJobResult(b *testing.B) {
	res := harness.NewRunner(1).RunJobs(harness.Jobs("latency-knee")[:1])
	compact, err := harness.EncodeJobResult(res[0])
	if err != nil {
		b.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", "  "); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{{"compact", compact}, {"indented", indented.Bytes()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.payload)))
			for b.Loop() {
				if _, err := harness.DecodeJobResult(c.payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
