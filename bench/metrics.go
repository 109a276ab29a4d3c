package main

// metricDef is one metric BENCHMARK.json names. The tables below are the
// benchmark's single definition of its metrics; TestBenchmarkJSON checks
// that BENCHMARK.json lists exactly these.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports, one value each per
// workload (host wall time unless noted). What a "pass" and an "edit" are
// depends on the workload; README.md has the table.
var endToEnd = []metricDef{
	// Median of three set-ups: store, coordinator and workers live, inputs
	// generated, one untimed warm-up simulation.
	{"setup_s", "s", "lower", 0.25},
	// Median wall time of one steady-state pass over the workload's jobs.
	{"pass_s", "s", "lower", 0.25},
	// Median wall time to answer again after one input changed.
	{"edit_s", "s", "lower", 0.25},
	// Median resident set of the workload process, sampled after each op.
	// The VmHWM peak is reported as a detail: it depends on which pool
	// jobs overlap when the GC runs, and moves by a fifth between runs.
	{"rss_mb", "MB", "lower", 0.25},
}

// cpuLayers are the groups a traced run's CPU profile is split into, in
// report order: the simulator's packages, the sweep and service layers,
// the standard-library layers they lean on, Go map operations, and the Go
// runtime.
var cpuLayers = []string{
	"engine", "sim", "dram", "fabric", "cxl", "osb", "pifs", "tier",
	"scenario", "fault", "numasim", "trace", "harness", "memo", "report",
	"serve", "sha256", "json", "compress", "net_http", "syscall", "maps",
	"runtime_gc", "runtime", "other",
}

// perLayer are the metrics a traced run reports. Work counts cover the
// workload's first cycle of ops, so they repeat exactly for a seed; times
// and shares cover the whole traced run.
var perLayer = append(cpuLayerDefs(), []metricDef{
	{"engine.jobs", "count", "lower", 0},
	{"engine.run_ms", "ms", "lower", 0},
	{"engine.host_ns_per_sim_bag", "ns", "lower", 0},
	{"engine.sim_bags", "count", "lower", 0},
	{"engine.share_closed", "%", "lower", 0},
	{"engine.share_fault", "%", "lower", 0},
	{"engine.share_multiswitch", "%", "lower", 0},
	{"scenario.openloop_share", "%", "lower", 0},
	{"numasim.jobs", "count", "lower", 0},
	{"dram.local_reads", "count", "lower", 0},
	{"dram.mean_queue_delay_ns", "ns", "lower", 0},
	{"cxl.device_reads", "count", "lower", 0},
	{"cxl.host_link_bytes", "bytes", "lower", 0},
	{"osb.hits", "count", "higher", 0},
	{"osb.hit_ratio", "ratio", "higher", 0},
	{"pifs.tag_switches", "count", "lower", 0},
	{"pifs.inorder_stalls", "count", "lower", 0},
	{"tier.pages_migrated", "count", "lower", 0},
	{"fault.retries", "count", "lower", 0},
	{"fault.timeouts", "count", "lower", 0},
	{"sim.envelopes", "count", "lower", 0},
	{"sim.cross_shard_envelopes", "count", "lower", 0},
	{"sim.windows_run", "count", "lower", 0},
	{"sim.windows_elided", "count", "higher", 0},
	{"sim.worker_imbalance", "ratio", "lower", 0},
	{"sim.shard_speedup", "ratio", "higher", 0},
	{"trace.gen_ms", "ms", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"harness.pool_busy_frac", "ratio", "higher", 0},
	{"harness.residual_frac", "ratio", "lower", 0},
	{"memo.hits", "count", "higher", 0},
	{"memo.misses", "count", "lower", 0},
	{"memo.hit_ratio", "ratio", "higher", 0},
	{"memo.put_bytes", "bytes", "lower", 0},
	{"memo.get_bytes", "bytes", "lower", 0},
	{"memo.corrupt", "count", "lower", 0},
	{"memo.put_errors", "count", "lower", 0},
	{"memo.hash_us", "us", "lower", 0},
	{"memo.get_us", "us", "lower", 0},
	{"memo.put_us", "us", "lower", 0},
	{"memo.encode_us", "us", "lower", 0},
	{"memo.decode_us", "us", "lower", 0},
	{"serve.published", "count", "lower", 0},
	{"serve.shared_jobs", "count", "higher", 0},
	{"serve.remote_completed", "count", "higher", 0},
	{"serve.remote_cache_hits", "count", "higher", 0},
	{"serve.local_runs", "count", "lower", 0},
	{"serve.lease_expired", "count", "lower", 0},
	{"serve.reissued", "count", "lower", 0},
	{"serve.failed_leases", "count", "lower", 0},
	{"serve.corrupt_results", "count", "lower", 0},
	{"serve.duplicate_results", "count", "lower", 0},
	{"serve.late_results", "count", "lower", 0},
	{"serve.wire_encode_us", "us", "lower", 0},
	{"serve.wire_decode_us", "us", "lower", 0},
	{"gc.cycles", "cycles", "lower", 0},
	{"gc.pause_ms", "ms", "lower", 0},
	{"runtime.alloc_mb_per_op", "MB", "lower", 0},
}...)

func cpuLayerDefs() []metricDef {
	out := make([]metricDef, len(cpuLayers))
	for i, l := range cpuLayers {
		out[i] = metricDef{Name: "cpu." + l, Unit: "%", Better: "lower"}
	}
	return out
}

// defOf returns the definition of a named metric.
func defOf(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
