// Package stats holds the order statistics and the results.json schema that
// the benchmark and its compare tool share.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first, second and third quartiles of xs by the
// method of Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so a spread computed here matches one computed from the same
// values in Python. One value is its own quartiles; no values give zeros.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Percentile returns the nearest-rank p-th percentile (p in [0,100]) of xs,
// or 0 for no values.
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p/100*float64(n))) - 1
	return s[max(0, min(rank, n-1))]
}

// Spread is the distance between the first and third quartiles of xs as a
// share of their median: the run-to-run noise the benchmark's bounds are
// checked against.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// Metric is one reported number with the sample summary behind it. Value is
// what the benchmark reports; Median, Q1, Q3 and N describe the samples it
// was derived from within one run (N is 1 for a value derived from the whole
// run).
type Metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	// Bound is the regression bound of an end-to-end metric as a share of
	// the parent's median; 0 for per-layer and detail metrics.
	Bound  float64 `json:"bound,omitempty"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// Summary builds a metric from samples, reporting their median.
func Summary(unit, better string, samples []float64) Metric {
	q1, q2, q3 := Quartiles(samples)
	return Metric{Value: q2, Unit: unit, Better: better, Median: q2, Q1: q1, Q3: q3, N: len(samples)}
}

// Single builds a metric from one derived value.
func Single(unit, better string, v float64) Metric {
	return Metric{Value: v, Unit: unit, Better: better, Median: v, Q1: v, Q3: v, N: 1}
}

// Workload is one workload's outcome in one run.
type Workload struct {
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Metrics are the metrics BENCHMARK.json names: the end-to-end set for
	// an untraced run, the per-layer set for a traced one.
	Metrics map[string]Metric `json:"metrics"`
	// Detail holds workload-specific numbers behind the named metrics.
	Detail map[string]Metric `json:"detail,omitempty"`
}

// Results is one results.json: every workload of one benchmark run.
type Results struct {
	Seed       uint64              `json:"seed"`
	Seconds    int                 `json:"seconds"`
	Trace      bool                `json:"trace"`
	GoVersion  string              `json:"go_version"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Workloads  map[string]Workload `json:"workloads"`
}

// Read loads a results.json.
func Read(path string) (Results, error) {
	var r Results
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Write stores r as indented JSON at path.
func (r Results) Write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
