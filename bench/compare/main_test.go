package main

import (
	"strings"
	"testing"

	"pifsrec/bench/stats"
)

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.1, 9.9, 10}
	shift := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * k
		}
		return out
	}
	cases := []struct {
		name string
		b    []float64
		want string
	}{
		{"faster everywhere", shift(0.9), "gain"},
		{"unchanged", shift(1.001), "same"},
		{"slower beyond the bound", shift(1.2), "regression"},
		{"slower within the bound", shift(1.03), "same"},
		{"noisy", []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}, "unresolved"},
	}
	for _, c := range cases {
		_, _, v := verdict(row{better: "lower", bound: 0.1, a: base, b: c.b})
		if v != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, v, c.want)
		}
	}
	// A higher-is-better metric that rose is a gain.
	if _, _, v := verdict(row{better: "higher", bound: 0.1, a: base, b: shift(1.2)}); v != "gain" {
		t.Errorf("higher-is-better rise: verdict %q, want gain", v)
	}
	// Winning 8 of 10 pairs is not enough for a gain.
	b := shift(0.95)
	b[0], b[1] = 11, 11
	if wins, pairs, v := verdict(row{better: "lower", bound: 0.1, a: base, b: b}); wins != 8 || pairs != 10 || v == "gain" {
		t.Errorf("8 of 10 wins: got %d/%d %q, want no gain", wins, pairs, v)
	}
}

func results(seed uint64, trace bool, pass, hits float64) stats.Results {
	m := map[string]stats.Metric{"pass_s": {Value: pass, Unit: "s", Better: "lower", Bound: 0.1}}
	if trace {
		m = map[string]stats.Metric{"memo.hits": stats.Single("count", "higher", hits)}
	}
	return stats.Results{Seed: seed, Trace: trace, Workloads: map[string]stats.Workload{
		"sweep-memo": {Correct: true, Attempted: 10, Metrics: m},
	}}
}

func TestAgree(t *testing.T) {
	var out strings.Builder
	as := []stats.Results{results(1, false, 1.0, 0), results(1, false, 1.02, 0), results(1, true, 0, 1186)}
	bs := []stats.Results{results(1, false, 1.01, 0), results(1, false, 0.99, 0), results(1, true, 0, 1186)}
	if !agree(&out, as, bs) {
		t.Errorf("agreeing sets reported as disagreeing:\n%s", out.String())
	}
	out.Reset()
	bs[0] = results(1, false, 1.3, 0)
	bs[1] = results(1, false, 1.3, 0)
	if agree(&out, as, bs) {
		t.Errorf("sets 30%% apart reported as agreeing:\n%s", out.String())
	}
	out.Reset()
	bs = []stats.Results{results(1, false, 1.0, 0), results(1, true, 0, 1185)}
	if agree(&out, as, bs) || !strings.Contains(out.String(), "memo.hits") {
		t.Errorf("a count that differs between runs of one seed was not reported:\n%s", out.String())
	}
}
