package stats

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 1, 4, 2, 3}, 3},
	}
	for _, c := range cases {
		if got := Median(c.in); !near(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(xs, n=4)
// gives for the same inputs.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7.5, 2.5}, [3]float64{1.25, 5, 8.75}},
		{[]float64{9}, [3]float64{9, 9, 9}},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; !near(got[0], c.want[0]) || !near(got[1], c.want[1]) || !near(got[2], c.want[2]) {
			t.Errorf("Quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	Quartiles(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("Quartiles reordered its input: %v", in)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	cases := []struct{ p, want float64 }{{0, 1}, {50, 50}, {90, 90}, {95, 95}, {99, 99}, {100, 100}}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{4, 8}, 90); got != 8 {
		t.Errorf("Percentile([4 8], 90) = %v, want 8", got)
	}
}

func TestSpread(t *testing.T) {
	// Quartiles 2.75 and 8.25 around a median of 5.5: (8.25-2.75)/5.5 = 1.
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("Spread = %v, want 1", got)
	}
	if got := Spread([]float64{2, 2, 2}); got != 0 {
		t.Errorf("Spread of equal values = %v, want 0", got)
	}
}

func TestResultsRoundTrip(t *testing.T) {
	want := Results{
		Seed: 2, Seconds: 20, Trace: true, GoVersion: "go1.24.0", GOMAXPROCS: 2,
		Workloads: map[string]Workload{
			"sweep-memo": {
				Correct: true, Attempted: 52, Failed: 0,
				Metrics: map[string]Metric{
					"pass_s": {Value: 0.3791234567891, Unit: "s", Better: "lower", Bound: 0.1, Median: 0.3791234567891, Q1: 0.37, Q3: 0.39, N: 25},
				},
				Detail: map[string]Metric{"fill_s": Single("s", "lower", 7.25)},
			},
			"scaleout-2shard": {
				Correct: false, Attempted: 3, Failed: 1, Failures: []string{"edit shards=1: differs"},
				Metrics: map[string]Metric{"cpu.sim": Single("%", "lower", 41.5)},
			},
		},
	}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := want.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the results:\n got %+v\nwant %+v", got, want)
	}
}
