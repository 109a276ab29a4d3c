package main

import (
	"fmt"
	"time"

	"pifsrec/bench/stats"
	"pifsrec/internal/dlrm"
	"pifsrec/internal/engine"
	"pifsrec/internal/harness"
	"pifsrec/internal/sim"
	"pifsrec/internal/trace"
)

// scaleoutRunsPerEdit is how many runs of the unchanged config each cycle
// makes before its edit pair.
const scaleoutRunsPerEdit = 4

// scaleout loops engine.Run on one large multi-switch PIFS-Rec config at 2
// shards, the only workload that drives the sharded engine's barrier,
// mailbox and placement hard. It bypasses harness, memo and serve.
type scaleout struct {
	b   *bench
	cfg engine.Config
	ref []byte // encoded 1-shard result of cfg, Sched zeroed
}

// scaleoutTraceSeed fixes the trace of the unchanged config, so pass_s
// times the same work on every seed: a trace's seed moves its simulated
// work by up to a fifth. Edits draw their traces from the run's seed.
const scaleoutTraceSeed = 7

// scaleoutTrace generates the workload's 512-bag Meta-like trace.
func (b *bench) scaleoutTrace(m dlrm.ModelConfig, seed uint64) (tr *trace.Trace, err error) {
	b.span("trace.gen", func() {
		tr, err = trace.Generate(trace.Spec{
			Kind: trace.MetaLike, Tables: m.Tables, RowsPerTable: m.EmbRows,
			Batches: 8, BatchSize: 4, BagSize: 32, Seed: seed,
		})
	})
	return tr, err
}

func setupScaleout(b *bench) (instance, error) {
	m := dlrm.RMC4().Scaled(64)
	tr, err := b.scaleoutTrace(m, scaleoutTraceSeed)
	if err != nil {
		return nil, err
	}
	w := &scaleout{b: b, cfg: engine.Config{
		Scheme: engine.PIFSRec, Model: m, Trace: tr,
		Hosts: 32, Switches: 32, Devices: 32, HostParallelism: 48, Seed: 3,
	}}
	// The untimed warm-up doubles as the reference: the 1-shard result
	// every 2-shard run must reproduce.
	ref, _, err := runShards(w.cfg, 1)
	if err != nil {
		return nil, err
	}
	w.ref = ref
	if _, _, err := runShards(w.cfg, 2); err != nil {
		return nil, err
	}
	return w, nil
}

// runShards runs cfg on the given shard count and returns the encoded
// result with the (shard-dependent) scheduling report zeroed, plus the
// full result.
func runShards(cfg engine.Config, shards int) ([]byte, engine.Result, error) {
	cfg.Shards = shards
	r, err := engine.Run(cfg)
	if err != nil {
		return nil, r, err
	}
	full := r
	r.Sched = sim.SchedStats{}
	enc, err := harness.EncodeJobResult(harness.JobResult{Engine: r})
	return enc, full, err
}

// check runs cfg at the given shard count, checks the answer against want
// (when set), times the run into series and returns the answer. The first
// cycle's first run gives the work counts.
func (w *scaleout) check(cfg engine.Config, shards int, want []byte, series string) ([]byte, error) {
	start := time.Now()
	enc, full, err := runShards(cfg, shards)
	d := time.Since(start)
	if err != nil {
		return nil, err
	}
	if want != nil && string(enc) != string(want) {
		return nil, fmt.Errorf("%d-shard result differs from the 1-shard result", shards)
	}
	b := w.b
	b.sample(series, d.Seconds())
	b.mu.Lock()
	defer b.mu.Unlock()
	b.timeJobLocked("multiswitch", d, len(cfg.Trace.Bags))
	if b.counting && b.work.engineJobs == 0 {
		job := harness.Job{Engine: &cfg}
		h, err := job.Hash()
		if err != nil {
			return nil, err
		}
		b.work.add("multiswitch", full)
		b.work.sched = full.Sched
		b.probes = append(b.probes, probeJob{job: job, hash: h, res: harness.JobResult{Engine: full}})
	}
	return enc, nil
}

func (w *scaleout) run() {
	b := w.b
	for cycle := 0; cycle == 0 || !b.expired(); cycle++ {
		b.beginCycle(cycle)
		for i := 0; i < scaleoutRunsPerEdit; i++ {
			d, ok := b.op("run shards=2", func() error {
				_, err := w.check(w.cfg, 2, w.ref, "run.shards2")
				return err
			})
			if ok {
				b.sample("pass", d)
			}
		}
		w.edit(1000 + b.rng.Uint64N(1<<40))
	}
}

// edit is one op: the same system on a new trace drawn from traceSeed, run
// at 2 shards. With no cache, answering again is a full re-run. A second op
// reruns it at 1 shard: the check, and the unsharded baseline.
func (w *scaleout) edit(traceSeed uint64) {
	b := w.b
	edited := w.cfg
	var got []byte
	d, ok := b.op("edit shards=2", func() (err error) {
		if edited.Trace, err = b.scaleoutTrace(edited.Model, traceSeed); err != nil {
			return err
		}
		got, err = w.check(edited, 2, nil, "edit.shards2")
		return err
	})
	if !ok {
		return
	}
	b.sample("edit", d)
	b.op("edit shards=1", func() error {
		_, err := w.check(edited, 1, got, "edit.shards1")
		return err
	})
}

func (w *scaleout) verify() {}

func (w *scaleout) report() (pass, edit stats.Metric) {
	b := w.b
	runs := b.samples["pass"]
	p50 := stats.Median(runs)
	bags := float64(len(w.cfg.Trace.Bags))
	b.detail["run_ms_p50"] = stats.Summary("ms", "lower", scale(runs, 1e3))
	b.detail["run_ms_p90"] = stats.Single("ms", "lower", 1e3*stats.Percentile(runs, 90))
	if p50 > 0 {
		b.detail["sim_bags_per_s"] = stats.Single("bags/s", "higher", bags/p50)
	}
	if e := stats.Median(b.samples["edit.shards2"]); e > 0 {
		b.detail["shard_speedup"] = stats.Single("ratio", "higher", stats.Median(b.samples["edit.shards1"])/e)
	}
	return stats.Summary("s", "lower", runs), stats.Summary("s", "lower", b.samples["edit"])
}

func (w *scaleout) close() {}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
