// Package harness regenerates every table and figure of the paper's
// evaluation (§III characterization and §VI). Each experiment is a spec:
// a declarative list of simulation jobs (one engine or numasim config per
// job; see Jobs) plus a pure assembly function that folds the job results
// into a report.Table with the same rows/series the paper plots. The split
// is what makes sweeps memoizable — the runner consults the content-
// addressed result cache per job and only simulates misses — while table
// output stays byte-identical to the pre-split monolithic builders.
// EXPERIMENTS.md records the measured values against the paper's.
package harness

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"pifsrec/internal/dlrm"
	"pifsrec/internal/engine"
	"pifsrec/internal/numasim"
	"pifsrec/internal/osb"
	"pifsrec/internal/power"
	"pifsrec/internal/report"
	"pifsrec/internal/sim"
	"pifsrec/internal/tco"
	"pifsrec/internal/tier"
	"pifsrec/internal/trace"
)

// scaledModels returns RMC1..RMC4 shrunk by a common factor so footprints
// stay laptop-sized while the relative size progression of Table I holds.
func scaledModels() []dlrm.ModelConfig {
	models := dlrm.Models()
	out := make([]dlrm.ModelConfig, len(models))
	for i, m := range models {
		out[i] = m.Scaled(64)
	}
	return out
}

// scaledRMC4 is the default experiment model (the paper's default).
func scaledRMC4() dlrm.ModelConfig { return dlrm.RMC4().Scaled(64) }

// benchBagSize is the pooling factor used in the experiments; production
// pooling runs in the tens of rows per lookup.
const benchBagSize = 32

// traceMemo holds every trace traceFor has generated, by spec, and
// traceHashes holds each one's content hash, computed once when traceFor
// generated it, by trace pointer, so Job.Hash can use it without
// re-serializing the trace. Both are pure caches of deterministic
// functions, so no caller can tell which call filled them, and they need
// no reset. Their keys come only from harness constants, so they stay
// bounded: the full sweep uses 10 specs, about 0.5 MB of traces. A stored
// hash is right only while nobody modifies the shared trace, which the
// Jobs contract forbids.
var (
	traceMu     sync.Mutex
	traceMemo   = make(map[trace.Spec]*trace.Trace)
	traceHashes sync.Map // *trace.Trace → [32]byte
)

// traceFor returns the standard trace for a model: generated and hashed by
// the first call for its spec, under the lock so that no spec is generated
// twice, and shared read-only by every later caller.
func traceFor(kind trace.Kind, m dlrm.ModelConfig, batches int) *trace.Trace {
	sp := trace.Spec{
		Kind:         kind,
		Tables:       m.Tables,
		RowsPerTable: m.EmbRows,
		Batches:      batches,
		BatchSize:    4,
		BagSize:      benchBagSize,
		Seed:         7,
	}
	traceMu.Lock()
	defer traceMu.Unlock()
	if tr, ok := traceMemo[sp]; ok {
		return tr
	}
	tr, err := trace.Generate(sp)
	if err != nil {
		panic(err)
	}
	h, err := tr.Hash()
	if err != nil {
		panic(err)
	}
	traceHashes.Store(tr, h)
	traceMemo[sp] = tr
	return tr
}

// memoizedTraceHash returns the content hash traceFor stored for tr, or
// ok=false when tr did not come from traceFor.
func memoizedTraceHash(tr *trace.Trace) (h [32]byte, ok bool) {
	v, ok := traceHashes.Load(tr)
	if !ok {
		return h, false
	}
	return v.([32]byte), true
}

// run executes one engine configuration, panicking on configuration errors
// (harness configs are code, not user input). The scheduling-quality report
// is stripped: job results are cached under a shard- and placement-
// independent identity, and Sched is the one Result field that varies with
// the shard count — dropping it keeps a cached result byte-identical to a
// fresh run of the same config at any shard count.
func run(cfg engine.Config) engine.Result {
	r, err := engine.Run(cfg)
	if err != nil {
		panic(err)
	}
	r.Sched = sim.SchedStats{}
	return r
}

// schemeConfig builds one scheme config over a model and trace.
func schemeConfig(s engine.Scheme, m dlrm.ModelConfig, tr *trace.Trace) engine.Config {
	return engine.Config{Scheme: s, Model: m, Trace: tr, Seed: 3}
}

// engineJob wraps a config as a Job.
func engineJob(cfg engine.Config) Job {
	c := cfg
	return Job{Engine: &c}
}

// numaJob wraps an analytic numasim evaluation as a Job; the §III
// characterization figures (Fig 5/6) use the closed form, and
// numasim-parity holds the event-driven model to it.
func numaJob(p numasim.Platform, w numasim.Workload, place numasim.Placement) Job {
	return Job{Numa: &NumaJob{Model: numasim.ModelAnalytic, Platform: p, Workload: w, Placement: place}}
}

// fig5Spec reproduces the characterization sweep: normalized application
// bandwidth versus table size for remote-socket, CXL, and interleaved
// placements under batch and table threading (six panels).
func fig5Spec() spec {
	p := numasim.Genoa()
	sizes := numasim.Fig5TableSizes()
	panels := []struct {
		name      string
		threading numasim.Threading
		place     numasim.Placement
		baseline  numasim.Placement
	}{
		{"(a) batch/remote", numasim.BatchThreading, numasim.RemoteSocket, numasim.AllLocal},
		{"(b) table/remote", numasim.TableThreading, numasim.RemoteSocket, numasim.AllLocal},
		{"(c) batch/CXL", numasim.BatchThreading, numasim.CXLExpander, numasim.AllLocal},
		{"(d) table/CXL", numasim.TableThreading, numasim.CXLExpander, numasim.AllLocal},
		{"(e) batch/interleave", numasim.BatchThreading, numasim.InterleaveCXL, numasim.CXLOnly},
		{"(f) table/interleave", numasim.TableThreading, numasim.InterleaveCXL, numasim.CXLOnly},
	}
	dims := []int{16, 32, 64, 128}
	// Jobs are ordered [panel][dim][size][baseline, placement].
	jobs := func() []Job {
		out := make([]Job, 0, len(panels)*len(dims)*len(sizes)*2)
		for _, panel := range panels {
			for _, dim := range dims {
				for _, ts := range sizes {
					w := numasim.DefaultWorkload(panel.threading, dim, ts)
					out = append(out, numaJob(p, w, panel.baseline), numaJob(p, w, panel.place))
				}
			}
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 5: normalized app bandwidth vs table size (20% slow-tier share)",
			Header: []string{"panel", "emb", "16K", "32K", "64K", "128K", "256K", "512K", "1024K"},
		}
		for pi, panel := range panels {
			for di, dim := range dims {
				cells := []any{panel.name, fmt.Sprintf("%dB", dim)}
				for si := range sizes {
					i := ((pi*len(dims)+di)*len(sizes) + si) * 2
					base, r := results[i].Numa, results[i+1].Numa
					norm := 0.0
					if base.AppGBs > 0 {
						norm = r.AppGBs / base.AppGBs
					}
					cells = append(cells, norm)
				}
				t.AddRow(cells...)
			}
		}
		t.AddNote("(a)-(d) normalized to all-local; (e)-(f) normalized to CXL-only, per the paper's 9x claim")
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// fig6Spec reproduces the bandwidth-contribution plot: DIMM vs CXL share of
// system bandwidth for five thread/dim configurations.
func fig6Spec() spec {
	p := numasim.Genoa()
	configs := numasim.Fig6Configs()
	jobs := func() []Job {
		out := make([]Job, len(configs))
		for i, c := range configs {
			out[i] = numaJob(p, numasim.Fig6Workload(c), numasim.InterleaveCXL)
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 6: CXL bandwidth contribution by configuration",
			Header: []string{"threads&dim", "DIMM", "CXL", "total"},
		}
		total := p.LocalGBs + p.CXLGBs
		for i, c := range configs {
			r := results[i].Numa
			d, x := r.LocalGBs/total, r.SlowGBs/total
			t.AddRow(fmt.Sprintf("%d&%d", c.Threads, c.EmbDim), d, x, d+x)
		}
		t.AddNote("paper: 16->32 threads with dim 64->128 raises system bandwidth by ~43%%; CXL adds 28.5-38.9%% throughput")
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// fig12aSpec reproduces the main HW/SW co-evaluation: normalized latency
// per model for the five schemes (min-max normalized like the paper).
func fig12aSpec() spec {
	models := scaledModels()
	schemes := engine.Schemes()
	jobs := func() []Job {
		var out []Job
		for _, m := range models {
			tr := traceFor(trace.MetaLike, m, 2)
			for _, s := range schemes {
				out = append(out, engineJob(schemeConfig(s, m, tr)))
			}
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 12(a): normalized latency by model (min-max normalized; lower is better)",
			Header: []string{"model", "Pond", "Pond+PM", "BEACON", "RecNMP", "PIFS-Rec"},
		}
		var pondOverPIFS, beaconOverPIFS []float64
		for mi, m := range models {
			lat := make([]float64, 0, len(schemes))
			for si := range schemes {
				lat = append(lat, results[mi*len(schemes)+si].Engine.NSPerBag)
			}
			norm := sim.MinMaxNormalize(lat)
			t.AddRow(m.Name, norm[0], norm[1], norm[2], norm[3], norm[4])
			pondOverPIFS = append(pondOverPIFS, lat[0]/lat[4])
			beaconOverPIFS = append(beaconOverPIFS, lat[2]/lat[4])
		}
		mp, _ := sim.MeanStd(pondOverPIFS)
		mb, _ := sim.MeanStd(beaconOverPIFS)
		t.AddNote("PIFS-Rec vs Pond: %.2fx (paper 3.89x); vs BEACON: %.2fx (paper 2.03x)", mp, mb)
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// fig12bSpec reproduces the trace-generality study on RMC4.
func fig12bSpec() spec {
	kinds := trace.Kinds()
	schemes := engine.Schemes()
	jobs := func() []Job {
		m := scaledRMC4()
		var out []Job
		for _, kind := range kinds {
			tr := traceFor(kind, m, 2)
			for _, s := range schemes {
				out = append(out, engineJob(schemeConfig(s, m, tr)))
			}
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 12(b): normalized latency by trace kind (RMC4)",
			Header: []string{"trace", "Pond", "Pond+PM", "BEACON", "RecNMP", "PIFS-Rec"},
		}
		for ki, kind := range kinds {
			lat := make([]float64, 0, len(schemes))
			for si := range schemes {
				lat = append(lat, results[ki*len(schemes)+si].Engine.NSPerBag)
			}
			norm := sim.MinMaxNormalize(lat)
			t.AddRow(string(kind), norm[0], norm[1], norm[2], norm[3], norm[4])
		}
		t.AddNote("paper: uniform most favorable for PIFS (1.1x over RecNMP), Zipfian least (2%%)")
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// fig12cSpec reproduces the device-count scalability sweep.
func fig12cSpec() spec {
	counts := []int{2, 4, 8, 16}
	schemes := engine.Schemes()
	jobs := func() []Job {
		m := scaledRMC4()
		tr := traceFor(trace.MetaLike, m, 2)
		var out []Job
		for _, n := range counts {
			for _, s := range schemes {
				cfg := schemeConfig(s, m, tr)
				cfg.Devices = n
				out = append(out, engineJob(cfg))
			}
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 12(c): normalized latency vs memory device count (RMC4)",
			Header: []string{"devices", "Pond", "Pond+PM", "BEACON", "RecNMP", "PIFS-Rec"},
		}
		var pifsFirst, pifsLast float64
		for ni, n := range counts {
			lat := make([]float64, 0, len(schemes))
			for si := range schemes {
				lat = append(lat, results[ni*len(schemes)+si].Engine.NSPerBag)
			}
			norm := sim.MinMaxNormalize(lat)
			t.AddRow(fmt.Sprintf("X%d", n), norm[0], norm[1], norm[2], norm[3], norm[4])
			if n == counts[0] {
				pifsFirst = lat[4]
			}
			pifsLast = lat[4]
			if n == 16 {
				t.AddNote("at 16 devices: PIFS vs Pond %.2fx (paper ~12.5x), vs RecNMP %.2fx (paper 1.22x)",
					lat[0]/lat[4], lat[3]/lat[4])
			}
		}
		t.AddNote("PIFS-Rec 2->16 devices improves %.2fx", pifsFirst/pifsLast)
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// fig12dSpec reproduces the DRAM-capacity sensitivity study.
func fig12dSpec() spec {
	// On the paper's multi-terabyte models, 128 GB..512 GB of local DRAM is
	// a 6%..25% share of the footprint.
	fractions := []struct {
		label string
		frac  float64
	}{{"128GB", 0.0625}, {"X2", 0.125}, {"X4", 0.25}}
	jobs := func() []Job {
		m := scaledRMC4()
		tr := traceFor(trace.MetaLike, m, 2)
		out := make([]Job, len(fractions))
		for i, f := range fractions {
			cfg := schemeConfig(engine.PIFSRec, m, tr)
			cfg.LocalFraction = f.frac
			out[i] = engineJob(cfg)
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 12(d): latency vs local DRAM capacity (RMC4, PIFS-Rec)",
			Header: []string{"capacity", "ns/bag", "vs 128GB"},
		}
		var base float64
		for i, f := range fractions {
			r := results[i].Engine
			if base == 0 {
				base = r.NSPerBag
			}
			t.AddRow(f.label, r.NSPerBag, base/r.NSPerBag)
		}
		t.AddNote("paper: X2/X4 capacity gives only ~4%%/6%% — bandwidth, not capacity, is the bottleneck")
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// fig12eSpec reproduces the ablation: Baseline (Pond), +PC, +OoO, +PM, +OSB.
func fig12eSpec() spec {
	steps := []func(*engine.Config){
		func(c *engine.Config) { c.DisableOoO, c.DisablePM, c.DisableOSB = true, true, true },
		func(c *engine.Config) { c.DisablePM, c.DisableOSB = true, true },
		func(c *engine.Config) { c.DisableOSB = true },
		func(c *engine.Config) {},
	}
	models := scaledModels()
	perModel := 1 + len(steps)
	jobs := func() []Job {
		var out []Job
		for _, m := range models {
			tr := traceFor(trace.MetaLike, m, 2)
			out = append(out, engineJob(schemeConfig(engine.Pond, m, tr)))
			for _, mutate := range steps {
				cfg := schemeConfig(engine.PIFSRec, m, tr)
				mutate(&cfg)
				out = append(out, engineJob(cfg))
			}
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 12(e): ablation (min-max normalized latency; lower is better)",
			Header: []string{"model", "Baseline", "PC", "PC/OoO", "PC/OoO/PM", "PC/OoO/PM/OSB"},
		}
		for mi, m := range models {
			lat := make([]float64, 0, perModel)
			for si := 0; si < perModel; si++ {
				lat = append(lat, results[mi*perModel+si].Engine.NSPerBag)
			}
			norm := sim.MinMaxNormalize(lat)
			t.AddRow(m.Name, norm[0], norm[1], norm[2], norm[3], norm[4])
		}
		t.AddNote("paper deltas: PC +26%% over Pond, OoO +7.3%%, PM +27%%, OSB +15%%")
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// fig13aSpec reproduces the migration-threshold sweep with both migration
// mechanisms' costs.
func fig13aSpec() spec {
	thresholds := []float64{0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50}
	jobs := func() []Job {
		m := scaledRMC4()
		tr := traceFor(trace.Zipfian, m, 3)
		out := make([]Job, 0, 2*len(thresholds))
		for _, thr := range thresholds {
			cfg := schemeConfig(engine.PIFSRec, m, tr)
			cfg.Devices = 8
			cfg.EpochBags = 16 // more management rounds so spreading differences surface
			cfg.MigrateThreshold = thr
			out = append(out, engineJob(cfg))
			cfg.PageBlockMigration = true
			out = append(out, engineJob(cfg))
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 13(a): embedding-migration threshold sweep (RMC4)",
			Header: []string{"threshold", "norm latency", "page-block cost", "cache-line cost"},
		}
		var lats []float64
		var pageCost, lineCost []float64
		for i := range thresholds {
			r, rp := results[2*i].Engine, results[2*i+1].Engine
			lats = append(lats, r.NSPerBag)
			lineCost = append(lineCost, float64(r.MigrationStallNS)/float64(r.TotalNS))
			pageCost = append(pageCost, float64(rp.MigrationStallNS)/float64(rp.TotalNS))
		}
		lo := lats[0]
		for _, v := range lats {
			if v < lo {
				lo = v
			}
		}
		bestIdx := 0
		for i, v := range lats {
			if v == lo {
				bestIdx = i
			}
		}
		for i, thr := range thresholds {
			t.AddRow(fmt.Sprintf("%.0f%%", thr*100), lats[i]/lats[0], pageCost[i], lineCost[i])
		}
		t.AddNote("best threshold %.0f%% (paper: 35%%); cache-line block cuts migration cost ~%.1fx (paper 5.1x)",
			thresholds[bestIdx]*100, safeDiv(mean(pageCost), mean(lineCost)))
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// fig13bSpec reproduces the per-device access-frequency balance before and
// after PM.
func fig13bSpec() spec {
	jobs := func() []Job {
		m := scaledRMC4()
		tr := traceFor(trace.Zipfian, m, 3)
		before := schemeConfig(engine.Pond, m, tr)
		before.Devices = 16
		after := schemeConfig(engine.PIFSRec, m, tr)
		after.Devices = 16
		return []Job{engineJob(before), engineJob(after)}
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 13(b): per-device access frequency before/after page management (16 devices)",
			Header: []string{"device", "before PM", "after PM"},
		}
		rb, ra := results[0].Engine, results[1].Engine
		// Relative frequencies scaled to 100 like the paper's y axis.
		maxB, maxA := maxOf(rb.DeviceReads), maxOf(ra.DeviceReads)
		for d := 0; d < 16; d++ {
			t.AddRow(d+1,
				100*float64(rb.DeviceReads[d])/maxB,
				100*float64(ra.DeviceReads[d])/maxA)
		}
		_, stdB := sim.MeanStd(toF(rb.DeviceReads))
		_, stdA := sim.MeanStd(toF(ra.DeviceReads))
		t.AddNote("std dev before=%.1f after=%.1f (paper: 20.6 -> 7.8)", stdB, stdA)
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// fig13cSpec reproduces multi-switch scale-out with instruction forwarding.
func fig13cSpec() spec {
	counts := []int{1, 2, 4, 8, 16, 32}
	// Columns are host-parallelism depths standing in for batch size.
	depths := []int{4, 16, 48}
	jobs := func() []Job {
		m := scaledRMC4()
		var out []Job
		for _, n := range counts {
			for _, depth := range depths {
				tr := traceFor(trace.MetaLike, m, 2)
				cfg := schemeConfig(engine.PIFSRec, m, tr)
				cfg.Switches = n
				cfg.Devices = n // one local CXL memory per switch (§VI-C4)
				cfg.Hosts = n   // and one host per switch
				cfg.HostParallelism = depth
				out = append(out, engineJob(cfg))
			}
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 13(c): normalized latency vs fabric switch count (RMC4)",
			Header: []string{"switches", "batch 8", "batch 64", "batch 256"},
		}
		base := make([]float64, len(depths))
		for ni, n := range counts {
			cells := []any{fmt.Sprintf("%dx", n)}
			for di := range depths {
				r := results[ni*len(depths)+di].Engine
				if base[di] == 0 {
					base[di] = r.NSPerBag
				}
				cells = append(cells, r.NSPerBag/base[di])
			}
			t.AddRow(cells...)
		}
		t.AddNote("paper: 2x -> 32x switches improves latency 1.8-20.8x in the largest batch")
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// fig13dSpec reproduces the cold-age threshold sweep against TPP.
func fig13dSpec() spec {
	thresholds := []float64{0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20}
	jobs := func() []Job {
		m := scaledRMC4()
		tr := traceFor(trace.MetaLike, m, 3)
		tpp := schemeConfig(engine.PIFSRec, m, tr)
		tpp.TPPPolicy = true
		out := []Job{engineJob(tpp)}
		for _, thr := range thresholds {
			cfg := schemeConfig(engine.PIFSRec, m, tr)
			cfg.ColdAgeThreshold = thr
			out = append(out, engineJob(cfg))
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 13(d): cold-age threshold sweep vs TPP (RMC4)",
			Header: []string{"config", "norm latency", "migration cost"},
		}
		rt := results[0].Engine
		t.AddRow("TPP", 1.0, float64(rt.MigrationStallNS)/float64(rt.TotalNS))

		best := ""
		bestLat := rt.NSPerBag
		for i, thr := range thresholds {
			r := results[i+1].Engine
			t.AddRow(fmt.Sprintf("%.0f%%", thr*100), r.NSPerBag/rt.NSPerBag,
				float64(r.MigrationStallNS)/float64(r.TotalNS))
			if r.NSPerBag < bestLat {
				bestLat = r.NSPerBag
				best = fmt.Sprintf("%.0f%%", thr*100)
			}
		}
		t.AddNote("best threshold %s at %.2fx of TPP (paper: 16%% with 12%% lower latency)", best, bestLat/rt.NSPerBag)
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// fig14Spec reproduces end-to-end multi-host speedup: SLS acceleration
// weighted with the (unaccelerated) MLP/interaction operators.
func fig14Spec() spec {
	// Host-side GFLOPs for non-SLS operators.
	const hostGFLOPs = 2000.0
	models := []dlrm.ModelConfig{dlrm.RMC1().Scaled(64), dlrm.RMC2().Scaled(64)}
	hostCounts := []int{1, 2, 4, 8}
	depths := []int{4, 16, 48}
	jobs := func() []Job {
		var out []Job
		for _, m := range models {
			for _, hosts := range hostCounts {
				for _, depth := range depths {
					tr := traceFor(trace.MetaLike, m, 2)
					pond := schemeConfig(engine.Pond, m, tr)
					pond.Hosts = hosts
					pond.HostParallelism = depth
					pifs := schemeConfig(engine.PIFSRec, m, tr)
					pifs.Hosts = hosts
					pifs.HostParallelism = depth
					out = append(out, engineJob(pond), engineJob(pifs))
				}
			}
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 14: end-to-end speedup of PIFS-Rec vs Pond by host count",
			Header: []string{"model", "hosts", "batch 8", "batch 64", "batch 256"},
		}
		i := 0
		for _, m := range models {
			nonSLSNS := float64(m.MLPFlops()) / hostGFLOPs
			for _, hosts := range hostCounts {
				cells := []any{m.Name, fmt.Sprintf("%dx", hosts)}
				for range depths {
					rp, rf := results[i].Engine, results[i+1].Engine
					i += 2
					// End-to-end time per query = SLS (per bag x tables) + MLPs.
					slsP := rp.NSPerBag * float64(m.Tables)
					slsF := rf.NSPerBag * float64(m.Tables)
					cells = append(cells, (slsP+nonSLSNS)/(slsF+nonSLSNS))
				}
				t.AddRow(cells...)
			}
		}
		t.AddNote("paper (RMC4): 2->8 hosts improves 1.9-4.7x; speedup grows with batch size")
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// fig15Spec reproduces the on-switch buffer sweep: speedup and hit ratio
// per capacity and replacement policy.
func fig15Spec() spec {
	sizes := []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	policies := []osb.Policy{osb.HTR, osb.LRU, osb.FIFO}
	jobs := func() []Job {
		m := scaledRMC4()
		tr := traceFor(trace.MetaLike, m, 2)
		noBuf := schemeConfig(engine.PIFSRec, m, tr)
		noBuf.DisableOSB = true
		out := []Job{engineJob(noBuf)}
		for _, size := range sizes {
			for _, pol := range policies {
				cfg := schemeConfig(engine.PIFSRec, m, tr)
				cfg.BufferBytes = size
				cfg.BufferPolicy = pol
				out = append(out, engineJob(cfg))
			}
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 15: on-switch buffer capacity and replacement policy (RMC4)",
			Header: []string{"size", "HTR speedup%", "LRU speedup%", "FIFO speedup%", "HTR hit%"},
		}
		base := results[0].Engine.NSPerBag
		for si, size := range sizes {
			cells := []any{fmt.Sprintf("%dKB", size>>10)}
			var htrHit float64
			for pi, pol := range policies {
				r := results[1+si*len(policies)+pi].Engine
				cells = append(cells, 100*(base/r.NSPerBag-1))
				if pol == osb.HTR {
					htrHit = 100 * r.BufferHitRatio
				}
			}
			cells = append(cells, htrHit)
			t.AddRow(cells...)
		}
		t.AddNote("paper: HTR 7.6%%-14.8%% speedup 64KB->512KB on RMC4, hit ratio up to 41.9%%, 1MB regresses")
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// fig16Spec reproduces the TCO comparison. Purely analytic: no simulation
// jobs behind it.
func fig16Spec() spec {
	return spec{assemble: func([]JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 16: normalized TCO, GPU parameter server vs PIFS-Rec",
			Header: []string{"model", "GPUx2", "GPUx3", "GPUx4", "PIFS-Rec", "capex$ (PIFS)"},
		}
		for _, m := range dlrm.Models() {
			deploy := m
			deploy.Tables = 192 // production-scale table count (§III)
			costs := []float64{
				tco.GPUSystem(deploy, 2).Total(),
				tco.GPUSystem(deploy, 3).Total(),
				tco.GPUSystem(deploy, 4).Total(),
				tco.PIFSSystem(deploy).Total(),
			}
			maxC := costs[0]
			for _, c := range costs {
				if c > maxC {
					maxC = c
				}
			}
			t.AddRow(m.Name, costs[0]/maxC, costs[1]/maxC, costs[2]/maxC, costs[3]/maxC,
				fmt.Sprintf("%.0f", tco.PIFSSystem(deploy).CapexUSD))
		}
		t.AddNote("paper: 3.38x cheaper on RMC1 (multi-GPU), 2.53x on RMC4 (1 GPU, 2TB system)")
		return t
	}}
}

// fig17Spec reproduces normalized throughput vs GPU counts plus PPW.
func fig17Spec() spec {
	return spec{assemble: func([]JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 17: normalized SLS throughput, GPU parameter server vs PIFS-Rec",
			Header: []string{"model", "GPUx2", "GPUx3", "GPUx4", "PIFS-Rec", "PPW vs 4-GPU"},
		}
		for _, m := range dlrm.Models() {
			deploy := m
			deploy.Tables = 4096 // multi-TB deployment regime for the large models
			if m.Name == "RMC1" || m.Name == "RMC2" {
				deploy.Tables = 192
			}
			th := []float64{
				tco.GPUThroughputGBs(deploy, 2),
				tco.GPUThroughputGBs(deploy, 3),
				tco.GPUThroughputGBs(deploy, 4),
				tco.PIFSThroughputGBs(deploy),
			}
			maxT := th[0]
			for _, v := range th {
				if v > maxT {
					maxT = v
				}
			}
			t.AddRow(m.Name, th[0]/maxT, th[1]/maxT, th[2]/maxT, th[3]/maxT, tco.PPW(deploy, 4))
		}
		t.AddNote("paper: GPUs win small models; PIFS-Rec 1.6x over a 4-GPU cluster at the large end; PPW 1.22-1.61x")
		return t
	}}
}

// fig18Spec reproduces the hardware-overhead table.
func fig18Spec() spec {
	return spec{assemble: func([]JobResult) *report.Table {
		t := &report.Table{
			Title:  "Fig 18: hardware overheads (Synopsys DC anchors, 45nm @ 1GHz)",
			Header: []string{"block", "power mW", "area um^2"},
		}
		t.AddRow(power.RecNMPBaseX8.Name, power.RecNMPBaseX8.PowerMW, power.RecNMPBaseX8.AreaUM2)
		for _, b := range power.PIFSBlocks() {
			t.AddRow(b.Name, b.PowerMW, b.AreaUM2)
		}
		t.AddNote("PIFS-Rec logic vs RecNMP(x8): %.2fx less power (paper 2.7x), %.2fx less area (paper 2.02x)",
			power.PowerRatioVsRecNMP(), power.AreaRatioVsRecNMP())
		return t
	}}
}

// numasimParitySpec tabulates the analytic closed form against the
// event-driven component model on the Fig 5 default column (dim 64) for
// every placement and threading, and reports the worst-case delta over the
// full seed sweep — the table form of the parity gate that lets Fig 5/6
// run on the analytic fast path. The full sweep (2 threadings x
// 4 dims x 7 sizes x 5 placements x 2 models) runs as jobs, so the whole
// parity matrix memoizes.
func numasimParitySpec() spec {
	p := numasim.Genoa()
	threadings := []numasim.Threading{numasim.BatchThreading, numasim.TableThreading}
	dims := []int{16, 32, 64, 128}
	sizes := numasim.Fig5TableSizes()
	places := numasim.SeedPlacements()
	models := []numasim.Model{numasim.ModelAnalytic, numasim.ModelEvent}
	idx := func(thI, dimI, tsI, plI, moI int) int {
		return (((thI*len(dims)+dimI)*len(sizes)+tsI)*len(places)+plI)*len(models) + moI
	}
	jobs := func() []Job {
		var out []Job
		for _, th := range threadings {
			for _, dim := range dims {
				for _, ts := range sizes {
					for _, place := range places {
						w := numasim.DefaultWorkload(th, dim, ts)
						for _, mo := range models {
							out = append(out, Job{Numa: &NumaJob{Model: mo, Platform: p, Workload: w, Placement: place}})
						}
					}
				}
			}
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Numasim parity: closed-form analytic vs event-driven components (dim 64, 512K rows)",
			Header: []string{"threading", "placement", "analytic GB/s", "event GB/s", "delta %"},
		}
		const dim64, size512K = 2, 5 // indices into dims / sizes
		for thI, th := range threadings {
			for plI, place := range places {
				a := results[idx(thI, dim64, size512K, plI, 0)].Numa
				e := results[idx(thI, dim64, size512K, plI, 1)].Numa
				delta := 0.0
				if a.AppGBs > 0 {
					delta = 100 * (e.AppGBs - a.AppGBs) / a.AppGBs
				}
				t.AddRow(string(th), string(place), a.AppGBs, e.AppGBs, delta)
			}
		}
		worst := 0.0
		for thI := range threadings {
			for dimI := range dims {
				for tsI := range sizes {
					for plI := range places {
						a := results[idx(thI, dimI, tsI, plI, 0)].Numa
						e := results[idx(thI, dimI, tsI, plI, 1)].Numa
						if a.AppGBs <= 0 {
							continue
						}
						d := 100 * (e.AppGBs - a.AppGBs) / a.AppGBs
						if d < 0 {
							d = -d
						}
						if d > worst {
							worst = d
						}
					}
				}
			}
		}
		t.AddNote("worst |delta| across the full seed sweep (2 threadings x 4 dims x 7 sizes x 5 placements): %.2f%%", worst)
		t.AddNote("event model deltas are latency tails + bulk-sync barrier handshakes the closed form ignores")
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// ablationInterleaveSpec sweeps the static interleave ratio for Pond+PM — an
// ablation beyond the paper's figures, grounding the §III finding that 4:1
// is a sweet spot for small working sets while large models want most pages
// pooled.
func ablationInterleaveSpec() spec {
	fractions := []float64{0.1, 0.2, 0.4, 0.6, 0.8}
	jobs := func() []Job {
		m := scaledRMC4()
		tr := traceFor(trace.MetaLike, m, 2)
		out := make([]Job, len(fractions))
		for i, frac := range fractions {
			cfg := schemeConfig(engine.PondPM, m, tr)
			cfg.LocalFraction = frac
			out[i] = engineJob(cfg)
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Ablation: initial local share (Pond+PM, RMC4)",
			Header: []string{"local share", "ns/bag"},
		}
		for i, frac := range fractions {
			t.AddRow(fmt.Sprintf("%.0f%%", frac*100), results[i].Engine.NSPerBag)
		}
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// ablationMigrationSpec sweeps the migration mechanism.
func ablationMigrationSpec() spec {
	jobs := func() []Job {
		m := scaledRMC4()
		tr := traceFor(trace.MetaLike, m, 3)
		line := schemeConfig(engine.PIFSRec, m, tr)
		page := schemeConfig(engine.PIFSRec, m, tr)
		page.PageBlockMigration = true
		return []Job{engineJob(line), engineJob(page)}
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "Ablation: migration mechanism (PIFS-Rec, RMC4)",
			Header: []string{"mechanism", "ns/bag", "migration cost"},
		}
		rl, rp := results[0].Engine, results[1].Engine
		t.AddRow("cache-line block", rl.NSPerBag, float64(rl.MigrationStallNS)/float64(rl.TotalNS))
		t.AddRow("page block", rp.NSPerBag, float64(rp.MigrationStallNS)/float64(rp.TotalNS))
		t.AddNote("stall constants encode the paper's 5.1x mechanism gap (%d vs %d ns/page)",
			tier.PageBlockStallNS, tier.CacheLineBlockStallNS)
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// dramQueueDelaySpec reports the mean DRAM queueing delay per scheme and
// model: the time a 64 B line request waits in a channel queue before its
// column command issues, aggregated across host DIMMs and CXL devices. It
// is the congestion signal behind the ns/bag figures — host-side schemes
// queue every pooled row's lines behind the FlexBus round trips, while
// in-switch accumulation keeps device queues short.
func dramQueueDelaySpec() spec {
	models := scaledModels()
	schemes := engine.Schemes()
	jobs := func() []Job {
		var out []Job
		for _, m := range models {
			tr := traceFor(trace.MetaLike, m, 2)
			for _, s := range schemes {
				out = append(out, engineJob(schemeConfig(s, m, tr)))
			}
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title:  "DRAM queue delay: mean ns a line request waits before issue",
			Header: []string{"model", "Pond", "Pond+PM", "BEACON", "RecNMP", "PIFS-Rec"},
		}
		for mi, m := range models {
			cells := []any{m.Name}
			for si := range schemes {
				cells = append(cells, results[mi*len(schemes)+si].Engine.MeanQueueDelayNS)
			}
			t.AddRow(cells...)
		}
		t.AddNote("aggregated over all controllers (host DIMMs + CXL devices); Fig 12(a) workload")
		return t
	}
	return spec{phases: staticPhases(jobs), assemble: assemble}
}

// specs maps experiment ids to their job/assemble specs. Constructors are
// lazy: configs are built only when an experiment's phase runs, and their
// traces come from the traceFor memo, generated at most once per process.
func specs() map[string]spec {
	return map[string]spec{
		"fig5":                fig5Spec(),
		"fig6":                fig6Spec(),
		"fig12a":              fig12aSpec(),
		"fig12b":              fig12bSpec(),
		"fig12c":              fig12cSpec(),
		"fig12d":              fig12dSpec(),
		"fig12e":              fig12eSpec(),
		"fig13a":              fig13aSpec(),
		"fig13b":              fig13bSpec(),
		"fig13c":              fig13cSpec(),
		"fig13d":              fig13dSpec(),
		"fig14":               fig14Spec(),
		"fig15":               fig15Spec(),
		"fig16":               fig16Spec(),
		"fig17":               fig17Spec(),
		"fig18":               fig18Spec(),
		"ablation-interleave": ablationInterleaveSpec(),
		"ablation-migration":  ablationMigrationSpec(),
		"dram-queues":         dramQueueDelaySpec(),
		"fault-sweep":         faultSweepSpec(),
		"latency-knee":        latencyKneeSpec(),
		"latency-sweep":       latencySweepSpec(),
		"max-qps":             maxQPSSpec(),
		"numasim-parity":      numasimParitySpec(),
	}
}

// IDs returns the experiment identifiers in a stable order.
func IDs() []string {
	m := specs()
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id and prints its table.
func Run(id string, w io.Writer) error {
	sp, ok := specs()[id]
	if !ok {
		return fmt.Errorf("harness: unknown experiment %q (have %v)", id, IDs())
	}
	pool.runSpec(sp).Fprint(w)
	return nil
}

// RunTable executes one experiment by id and returns its table.
func RunTable(id string) (*report.Table, error) {
	sp, ok := specs()[id]
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", id, IDs())
	}
	return pool.runSpec(sp), nil
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer) error {
	for _, id := range IDs() {
		if err := Run(id, w); err != nil {
			return err
		}
	}
	return nil
}

func mean(xs []float64) float64 {
	m, _ := sim.MeanStd(xs)
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxOf(xs []int64) float64 {
	var m int64 = 1
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return float64(m)
}

func toF(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}
