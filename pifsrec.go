// Package pifsrec is a simulation library reproducing PIFS-Rec
// (Process-In-Fabric-Switch for Large-Scale Recommendation System
// Inferences, MICRO 2024): near-data SparseLengthSum acceleration inside
// CXL fabric switches, with tiered page management and an on-switch buffer,
// evaluated against Pond, BEACON, and RecNMP baselines.
//
// The package has one entry point, Simulate: it runs an access trace
// through a scheme and returns the performance counters the paper's
// figures are built from. The trace may be generated (GenerateTrace,
// TraceFor), loaded from a file (LoadTrace), or built bag by bag.
//
// The cmd/pifsbench binary and the repository's bench_test.go regenerate
// every table and figure of the paper; see EXPERIMENTS.md.
package pifsrec

import (
	"pifsrec/internal/dlrm"
	"pifsrec/internal/engine"
	"pifsrec/internal/fault"
	"pifsrec/internal/scenario"
	"pifsrec/internal/trace"
)

// Scheme selects the system organization. See the paper's §VI-B baselines.
type Scheme = engine.Scheme

// The five evaluated schemes.
const (
	Pond    = engine.Pond
	PondPM  = engine.PondPM
	BEACON  = engine.BEACON
	RecNMP  = engine.RecNMP
	PIFSRec = engine.PIFSRec
)

// Schemes lists every scheme in the paper's legend order.
func Schemes() []Scheme { return engine.Schemes() }

// ModelConfig re-exports the DLRM model configuration (Table I).
type ModelConfig = dlrm.ModelConfig

// Table I model constructors.
func RMC1() ModelConfig { return dlrm.RMC1() }
func RMC2() ModelConfig { return dlrm.RMC2() }
func RMC3() ModelConfig { return dlrm.RMC3() }
func RMC4() ModelConfig { return dlrm.RMC4() }

// Models returns RMC1..RMC4.
func Models() []ModelConfig { return dlrm.Models() }

// TraceKind selects the synthetic access distribution of §VI-C2.
type TraceKind = trace.Kind

// Trace kinds (Fig 12(b) labels).
const (
	MetaLike = trace.MetaLike
	Zipfian  = trace.Zipfian
	Normal   = trace.Normal
	Uniform  = trace.Uniform
	Random   = trace.Random
)

// TraceSpec parameterizes trace generation.
type TraceSpec = trace.Spec

// Trace is a generated, loaded or hand-built access trace.
type Trace = trace.Trace

// Bag is one SparseLengthSum lookup of a Trace: row indices in one
// embedding table, with optional per-index weights.
type Bag = trace.Bag

// GenerateTrace builds a synthetic trace.
func GenerateTrace(spec TraceSpec) (*Trace, error) { return trace.Generate(spec) }

// LoadTrace reads a trace file written by Trace.Save.
func LoadTrace(path string) (*Trace, error) { return trace.Load(path) }

// Config describes one simulation run; zero values select the paper's
// defaults (4 devices, 1 switch, 1 host, 512 KB HTR buffer for PIFS-Rec).
type Config = engine.Config

// Result carries the measured outcome of a simulation.
type Result = engine.Result

// Simulate runs a trace through a scheme and returns the measurements. A
// bag whose table or row lies outside the trace's shape, or whose weights
// do not match its indices, is an error.
func Simulate(cfg Config) (Result, error) {
	if cfg.Trace != nil {
		if err := cfg.Trace.Validate(); err != nil {
			return Result{}, err
		}
	}
	return engine.Run(cfg)
}

// FaultPlan is a declarative fault-injection schedule (see internal/fault):
// link flaps, device failure or latency inflation, DRAM channel offlining,
// and switch stalls, plus the retry policy. Assign one to Config.Faults.
type FaultPlan = fault.Plan

// LoadFaultPlan reads a JSON fault plan from a file.
func LoadFaultPlan(path string) (*FaultPlan, error) { return fault.Load(path) }

// ValidateFaultPlan checks a plan against the topology cfg assembles,
// returning an actionable error for an unknown link name or out-of-range
// device, channel, or switch index.
func ValidateFaultPlan(p *FaultPlan, cfg Config) error {
	return p.Validate(engine.FaultTopology(cfg))
}

// ScenarioSpec is a declarative open-loop arrival scenario (see
// internal/scenario): instead of the closed loop's fixed in-flight depth, an
// arrival process assigns every bag a request time and the engine tracks
// arrival-to-completion latency into Result.Latency. Assign one to
// Config.Scenario; the zero/empty spec is the plain closed loop, bit for bit.
type ScenarioSpec = scenario.Spec

// The open-loop arrival kinds.
const (
	ScenarioPoisson = scenario.Poisson
	ScenarioDiurnal = scenario.Diurnal
	ScenarioTrace   = scenario.Trace
)

// LatencyReport is the open-loop tail-latency summary in Result.Latency:
// fixed-memory p50/p95/p99/p999 plus goodput-under-SLO.
type LatencyReport = scenario.LatencyReport

// LoadScenario reads a JSON scenario spec from a file, rejecting unknown
// fields so a typo'd key fails loudly instead of running a different load.
func LoadScenario(path string) (*ScenarioSpec, error) { return scenario.Load(path) }

// ParseScenario decodes a JSON scenario spec.
func ParseScenario(data []byte) (*ScenarioSpec, error) { return scenario.Parse(data) }

// TraceFor generates a trace shaped for a model with sane defaults: the
// given kind, batches x 4 queries, pooling factor 32.
func TraceFor(kind TraceKind, m ModelConfig, batches int) (*Trace, error) {
	return trace.Generate(trace.Spec{
		Kind:         kind,
		Tables:       m.Tables,
		RowsPerTable: m.EmbRows,
		Batches:      batches,
		BatchSize:    4,
		BagSize:      32,
		Seed:         7,
	})
}
