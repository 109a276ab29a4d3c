// Package scenario describes open-loop traffic scenarios for the simulated
// system: instead of the harness's closed loop (each host keeps a fixed
// number of bags in flight and refills on completion), an arrival process
// assigns every bag of the trace a request time, the engine injects it as an
// ordinary calendar event on its host's group engine, and end-to-end latency
// is tracked from arrival to completion — the axis a production fleet is
// actually judged on. A Spec is declarative data, like fault.Plan: the
// arrival schedule is a pure function of (spec, bag count), so the
// byte-determinism contract (identical results at every shard count and
// placement) survives open-loop injection unchanged.
//
// Three generators cover the production shapes the ROADMAP's north star
// names: Poisson (memoryless steady load), Diurnal (a sinusoidal rate curve
// between peak and trough, sampled by thinning), and Trace (inter-arrival
// gaps proportional to recorded bag sizes, streamed from a PIFSTRC1 file
// with bounded memory so multi-GB production traces replay). Per-request
// latencies aggregate into a fixed-memory quantile Sketch (p50/p95/p99/p999)
// plus goodput-under-SLO. The front-ends are `pifssim -scenario spec.json`
// and the latency-knee / max-qps / latency-sweep harness experiments.
package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"pifsrec/internal/sim"
	"pifsrec/internal/trace"
)

// Kind discriminates arrival generators.
type Kind string

// The supported arrival processes.
const (
	// Poisson draws i.i.d. exponential inter-arrival gaps at rate QPS.
	Poisson Kind = "poisson"
	// Diurnal modulates a Poisson process by a sinusoidal rate curve:
	// rate(t) = QPS * (1 + Swing*sin(2πt/PeriodNS)), sampled exactly by
	// thinning against the peak rate.
	Diurnal Kind = "diurnal"
	// Trace derives gaps from a recorded PIFSTRC1 bag stream: each gap is
	// proportional to the recorded bag's size (bigger requests arrive after
	// longer gaps, preserving the trace's burst shape), scaled so the mean
	// rate is exactly QPS. The file is streamed — twice, once to measure the
	// mean size and once to emit gaps — under bounded memory.
	Trace Kind = "trace"
)

// Kinds lists every arrival kind.
func Kinds() []Kind { return []Kind{Poisson, Diurnal, Trace} }

// Defaults for diurnal modulation.
const (
	DefaultSwing    = 0.5
	DefaultPeriodNS = 2_000_000
)

// Spec is one open-loop arrival scenario. The zero value (and Kind == "")
// is the no-scenario spec: the engine treats it exactly like nil, bit for
// bit, and runs the plain closed loop.
type Spec struct {
	Kind Kind `json:"kind"`
	// QPS is the mean arrival rate in requests per second of simulated time.
	QPS float64 `json:"qps"`
	// Swing is the diurnal modulation depth in [0, 1]: the rate swings
	// between QPS*(1-Swing) and QPS*(1+Swing). Diurnal only; default 0.5.
	Swing float64 `json:"swing,omitempty"`
	// PeriodNS is the diurnal period. Diurnal only; default 2ms — a day
	// compressed to simulation timescales.
	PeriodNS int64 `json:"period_ns,omitempty"`
	// ArrivalTracePath names the PIFSTRC1 file whose bag sizes shape the
	// gaps. Trace only. The canonical config encoding hashes the file's
	// content, not this path.
	ArrivalTracePath string `json:"arrival_trace,omitempty"`
	// SLONS is the per-request latency objective: completions at or under it
	// count toward goodput. Zero means no SLO (every completion counts).
	SLONS int64 `json:"slo_ns,omitempty"`
	// Seed drives the Poisson/Diurnal draws (independent of the engine
	// seed, so load and system randomness can be varied separately).
	Seed uint64 `json:"seed,omitempty"`
}

// Empty reports whether the spec describes no scenario.
func (s *Spec) Empty() bool { return s == nil || s.Kind == "" }

// Normalized returns the spec with defaults applied and kind-irrelevant
// fields zeroed, so equivalent specs encode (and hash) identically, or an
// error for an invalid spec. The zero spec normalizes to itself.
func (s Spec) Normalized() (Spec, error) {
	if s.Kind == "" {
		return Spec{}, nil
	}
	switch s.Kind {
	case Poisson, Diurnal, Trace:
	default:
		return Spec{}, fmt.Errorf("scenario: unknown kind %q (have %v)", s.Kind, Kinds())
	}
	if !(s.QPS > 0) || math.IsInf(s.QPS, 0) {
		return Spec{}, fmt.Errorf("scenario: qps %v must be a positive finite rate", s.QPS)
	}
	if s.SLONS < 0 {
		return Spec{}, fmt.Errorf("scenario: slo_ns %d must be non-negative", s.SLONS)
	}
	if math.IsNaN(s.Swing) || math.IsInf(s.Swing, 0) { // JSON has neither, for any kind
		return Spec{}, fmt.Errorf("scenario: swing %v must be finite", s.Swing)
	}
	switch s.Kind {
	case Diurnal:
		if s.Swing == 0 {
			s.Swing = DefaultSwing
		}
		if s.Swing < 0 || s.Swing > 1 {
			return Spec{}, fmt.Errorf("scenario: swing %v outside [0, 1]", s.Swing)
		}
		if s.PeriodNS == 0 {
			s.PeriodNS = DefaultPeriodNS
		}
		if s.PeriodNS < 0 {
			return Spec{}, fmt.Errorf("scenario: period_ns %d must be positive", s.PeriodNS)
		}
		s.ArrivalTracePath = ""
	case Trace:
		if s.ArrivalTracePath == "" {
			return Spec{}, fmt.Errorf("scenario: kind %q needs arrival_trace", Trace)
		}
		s.Swing, s.PeriodNS = 0, 0
	default: // Poisson
		s.Swing, s.PeriodNS = 0, 0
		s.ArrivalTracePath = ""
	}
	return s, nil
}

// Validate checks the spec without returning the normalized form.
func (s *Spec) Validate() error {
	if s.Empty() {
		return nil
	}
	_, err := s.Normalized()
	return err
}

// Parse decodes a JSON spec, rejecting unknown fields so a typo'd key fails
// loudly instead of silently running a different scenario.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	return &s, nil
}

// Load reads a JSON spec from a file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

// Arrivals materializes the deterministic arrival schedule for n requests,
// in nondecreasing tick order starting at or after 0, or an error once an
// arrival would fall past sim.MaxInputNS (a rate too low for n requests).
// Identical specs produce identical schedules — the engine injects arrival
// k as a calendar event on host (k mod Hosts), matching the trace's bag
// striping, so the schedule (and everything downstream of it) is
// independent of shard count and placement. The spec must be valid;
// defaults are applied here so a normalized and an un-normalized
// equivalent spec emit the same schedule.
func (s *Spec) Arrivals(n int) ([]sim.Tick, error) {
	norm, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	if norm.Empty() {
		return nil, fmt.Errorf("scenario: Arrivals on an empty spec")
	}
	out := make([]sim.Tick, 0, n)
	switch norm.Kind {
	case Poisson:
		rng := sim.NewRNG(norm.Seed)
		perNS := norm.QPS / 1e9
		t := 0.0
		for len(out) < n {
			t += expGap(rng, perNS)
			at, err := arrivalTick(len(out), t)
			if err != nil {
				return nil, err
			}
			out = append(out, at)
		}
	case Diurnal:
		// Thinning: candidates at the peak rate, accepted with probability
		// rate(t)/peak — an exact sampler for the inhomogeneous process.
		rng := sim.NewRNG(norm.Seed)
		peakPerNS := norm.QPS * (1 + norm.Swing) / 1e9
		omega := 2 * math.Pi / float64(norm.PeriodNS)
		t := 0.0
		for len(out) < n {
			t += expGap(rng, peakPerNS)
			at, err := arrivalTick(len(out), t)
			if err != nil {
				return nil, err
			}
			rate := norm.QPS * (1 + norm.Swing*math.Sin(omega*t)) / 1e9
			if rng.Float64()*peakPerNS <= rate {
				out = append(out, at)
			}
		}
	case Trace:
		gaps, err := traceGaps(norm.ArrivalTracePath, n, norm.QPS)
		if err != nil {
			return nil, err
		}
		t := 0.0
		for _, g := range gaps {
			t += g
			at, err := arrivalTick(len(out), t)
			if err != nil {
				return nil, err
			}
			out = append(out, at)
		}
	}
	return out, nil
}

// arrivalTick converts arrival i's time t, in ns, to a tick, or reports it
// past sim.MaxInputNS.
func arrivalTick(i int, t float64) (sim.Tick, error) {
	if !(t <= sim.MaxInputNS) {
		return 0, fmt.Errorf("scenario: arrival %d at %.4g ns falls past %d ns, the latest time an input may name; raise qps",
			i, t, int64(sim.MaxInputNS))
	}
	return sim.Tick(t), nil
}

// expGap draws one exponential inter-arrival gap (ns) at ratePerNS.
func expGap(rng *sim.RNG, ratePerNS float64) float64 {
	return -math.Log(1-rng.Float64()) / ratePerNS
}

// traceGaps streams the arrival trace twice with bounded memory: pass one
// measures the mean bag size, pass two emits one gap per request,
// proportional to the recorded size and scaled so the mean gap is exactly
// 1/QPS. When the file holds fewer bags than n, the stream cycles.
func traceGaps(path string, n int, qps float64) ([]float64, error) {
	var sum, count uint64
	fs, err := trace.OpenStream(path)
	if err != nil {
		return nil, err
	}
	for {
		bag, err := fs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fs.Close()
			return nil, err
		}
		sum += uint64(len(bag.Indices))
		count++
	}
	fs.Close()
	if count == 0 || sum == 0 {
		return nil, fmt.Errorf("scenario: arrival trace %s has no rows to shape gaps from", path)
	}
	// mean gap = 1/QPS seconds = 1e9/QPS ns; a bag of mean size gets exactly
	// that, bigger bags proportionally more.
	scale := 1e9 / qps * float64(count) / float64(sum)

	gaps := make([]float64, 0, n)
	for len(gaps) < n {
		fs, err := trace.OpenStream(path)
		if err != nil {
			return nil, err
		}
		emitted := false
		for len(gaps) < n {
			bag, err := fs.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				fs.Close()
				return nil, err
			}
			gaps = append(gaps, float64(len(bag.Indices))*scale)
			emitted = true
		}
		fs.Close()
		if !emitted && len(gaps) < n {
			return nil, fmt.Errorf("scenario: arrival trace %s has no bags", path)
		}
	}
	return gaps, nil
}

// HashArrivalTrace returns the SHA-256 of the arrival file's raw bytes,
// streamed — the content identity the canonical config encoding uses in
// place of the path, so renaming or moving the file never aliases cache
// entries and editing it always misses.
func HashArrivalTrace(path string) ([32]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return [32]byte{}, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return [32]byte{}, fmt.Errorf("scenario: hashing %s: %w", path, err)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

// LatencyReport is the aggregated open-loop result surfaced as
// engine.Result.Latency: fixed-memory tail quantiles plus goodput-under-SLO.
// Unlike Result.Sched it is byte-identical at every shard count and
// placement — per-host sketches merge in host order and Merge is exactly
// associative — so it is cached and served like any other result field.
type LatencyReport struct {
	// Requests is the number of completed requests (== bags).
	Requests int64
	// MeanNS and the quantiles summarize arrival→completion latency.
	MeanNS float64
	P50NS  int64
	P95NS  int64
	P99NS  int64
	P999NS int64
	MaxNS  int64
	// SLONS echoes the objective; WithinSLO counts non-degraded requests
	// that met it (SLONS == 0 counts every non-degraded completion).
	SLONS     int64
	WithinSLO int64
	// OfferedQPS is the configured mean arrival rate; GoodputQPS is
	// WithinSLO per simulated second — the knee curves plot the two against
	// each other.
	OfferedQPS float64
	GoodputQPS float64
}

// NewReport assembles a report from the merged sketch and the engine's
// exact SLO accounting over a run spanning spanNS.
func NewReport(sk *Sketch, withinSLO, sloNS, spanNS int64, offeredQPS float64) LatencyReport {
	r := LatencyReport{
		Requests:   sk.Count(),
		MeanNS:     sk.Mean(),
		P50NS:      sk.Quantile(0.50),
		P95NS:      sk.Quantile(0.95),
		P99NS:      sk.Quantile(0.99),
		P999NS:     sk.Quantile(0.999),
		MaxNS:      sk.Max(),
		SLONS:      sloNS,
		WithinSLO:  withinSLO,
		OfferedQPS: offeredQPS,
	}
	if spanNS > 0 {
		r.GoodputQPS = float64(withinSLO) / float64(spanNS) * 1e9
	}
	return r
}
