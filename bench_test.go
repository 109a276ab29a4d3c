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
	"fmt"
	"io"
	"runtime"
	"testing"

	"pifsrec/internal/dlrm"
	"pifsrec/internal/dram"
	"pifsrec/internal/engine"
	"pifsrec/internal/harness"
	"pifsrec/internal/isa"
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

// DESIGN.md extra ablations.
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
// pool of self-rescheduling timers with mixed near (calendar ring) and far
// (heap) periods, one schedule per fire. Allocs/op must be 0 once the arena
// is warm.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := sim.NewEngine()
	remaining := b.N
	const timers = 64
	for k := 0; k < timers; k++ {
		period := sim.Tick(1 + k%13)
		if k%8 == 0 {
			period = 5000 + sim.Tick(k) // beyond the ring horizon: heap path
		}
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

// BenchmarkEngineScheduleHeapBaseline runs the identical timer workload on
// the container/heap kernel this repository used before the calendar queue;
// the ratio to BenchmarkEngineSchedule is the kernel speedup.
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

func BenchmarkDRAMRandom(b *testing.B) {
	geo := dram.Table2Geometry()
	tim := dram.DDR4_3200()
	rng := sim.NewRNG(1)
	addrs := make([]uint64, 1000)
	for i := range addrs {
		addrs[i] = (rng.Uint64() % uint64(geo.Capacity())) &^ 63
	}
	done := func(int32, sim.Tick) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		c := dram.NewController(eng, geo, tim)
		for _, a := range addrs {
			c.SubmitRange(a, 64, false, 0, done, 0)
		}
		eng.Run()
	}
}

// BenchmarkDRAMRequestPath measures the steady-state batched request path:
// one SubmitBatch per iteration (an SLS bag's worth of scattered row
// vectors) driven to completion. Allocs/op must be 0 once the arenas are
// warm — requests, batch slots, queue rings, and engine events all recycle.
func BenchmarkDRAMRequestPath(b *testing.B) {
	geo := Table2Geometry2ch()
	eng := sim.NewEngine()
	c := dram.NewController(eng, geo, dram.DDR5_4800())
	rng := sim.NewRNG(5)
	const rows = 32
	const vecBytes = 512
	addrs := make([]uint64, rows)
	for i := range addrs {
		addrs[i] = (rng.Uint64() % uint64(geo.Capacity()-vecBytes)) &^ 63
	}
	done := func(int32, sim.Tick) {}
	c.SubmitBatch(addrs, vecBytes, false, 0, done, 0) // warm the arenas
	eng.Run()
	b.ReportAllocs()
	b.SetBytes(rows * vecBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SubmitBatch(addrs, vecBytes, false, 0, done, 0)
		eng.Run()
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

func BenchmarkISAEncodeDecode(b *testing.B) {
	in, err := isa.NewDataFetch(7, 0x1000, 3, 12, 64, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		slot, err := in.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := isa.Decode(slot); err != nil {
			b.Fatal(err)
		}
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

func BenchmarkSLSMath(b *testing.B) {
	tbl := dlrm.NewEmbeddingTable(4096, 64, sim.NewRNG(3))
	indices := []uint32{1, 100, 200, 300, 400, 500, 600, 700}
	out := make([]float32, 64)
	b.ReportAllocs()
	b.SetBytes(int64(len(indices) * 64 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.SLS(indices, nil, out)
	}
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

func BenchmarkInference(b *testing.B) {
	cfg := dlrm.RMC1().Scaled(64)
	cfg.Tables = 8
	m, err := dlrm.NewModel(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := dlrm.Query{Dense: make([]float32, cfg.DenseFeatures)}
	for t := 0; t < cfg.Tables; t++ {
		q.Bags = append(q.Bags, []uint32{1, 2, 3, 4})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Infer(q); err != nil {
			b.Fatal(err)
		}
	}
}
