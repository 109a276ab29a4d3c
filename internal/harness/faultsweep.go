package harness

import (
	"pifsrec/internal/engine"
	"pifsrec/internal/fault"
	"pifsrec/internal/report"
	"pifsrec/internal/trace"
)

// faultChaosSeed fixes the fault-sweep chaos plan; the plan is a pure
// function of (seed, topology, clean runtime), so the sweep reproduces bit
// for bit.
const faultChaosSeed = 11

// faultSweepSpec measures how gracefully each scheme degrades under a seeded
// chaos plan: every fault kind the system models (link flap, device fail,
// device slow, DRAM channel offline, switch stall), with windows scaled to
// each scheme's own clean runtime so every run actually overlaps its
// faults. Columns surface the retry/timeout/reroute counters, the aborted
// (degraded-result) bags, the degraded-time fraction, and goodput —
// non-degraded bags per simulated second.
//
// It has two phases: the chaos plans of phase two are derived from phase
// one's clean runtimes, so the fault configs (and their cache identities —
// the fault plan is part of the canonical encoding) only exist once the
// clean results do. Both phases memoize independently.
func faultSweepSpec() spec {
	schemes := engine.Schemes()
	baseConfigs := func() []engine.Config {
		m := scaledRMC4()
		tr := traceFor(trace.MetaLike, m, 2)
		out := make([]engine.Config, len(schemes))
		for i, s := range schemes {
			out[i] = schemeConfig(s, m, tr)
		}
		return out
	}
	cleanPhase := func([]JobResult) []Job {
		cfgs := baseConfigs()
		out := make([]Job, len(cfgs))
		for i := range cfgs {
			out[i] = engineJob(cfgs[i])
		}
		return out
	}
	faultPhase := func(prior []JobResult) []Job {
		cfgs := baseConfigs()
		out := make([]Job, len(cfgs))
		for i := range cfgs {
			cfg := cfgs[i]
			cfg.Faults = fault.Chaos(faultChaosSeed, engine.FaultTopology(cfg), int64(prior[i].Engine.TotalNS))
			out[i] = engineJob(cfg)
		}
		return out
	}
	assemble := func(results []JobResult) *report.Table {
		t := &report.Table{
			Title: "Fault sweep: seeded chaos plan per scheme (retry timeout 2us, 3 retries, exp backoff)",
			Header: []string{"scheme", "clean ns/bag", "fault ns/bag", "slowdown",
				"retries", "timeouts", "aborted rows", "aborted bags", "rerouted rows", "degraded%", "goodput bags/s"},
		}
		for i, s := range schemes {
			c, f := results[i].Engine, results[len(schemes)+i].Engine
			t.AddRow(string(s), c.NSPerBag, f.NSPerBag, f.NSPerBag/c.NSPerBag,
				f.FaultRetries, f.FaultTimeouts, f.AbortedRows, f.AbortedBags,
				f.ReroutedRows, 100*f.DegradedFraction, f.GoodputBagsPerSec)
		}
		t.AddNote("chaos seed %d; one fault of each kind, windows inside each scheme's clean runtime", faultChaosSeed)
		t.AddNote("aborted bags completed with a partial sum (some rows unreachable after retries)")
		return t
	}
	return spec{phases: []phaseFn{cleanPhase, faultPhase}, assemble: assemble}
}
