// Command compare sets two sets of benchmark results side by side.
//
// Each set is a list of results.json files, one per benchmark run; run the
// two sides alternately (A1, B1, A2, B2, ...) so that pair i shares the
// machine's state. For every (workload, end-to-end metric) it prints both
// sides' medians and quartiles over the runs, the share of pairs the B side
// wins, and a verdict:
//
//	gain        B wins at least 9 of 10 pairs and the medians differ by more
//	            than A's interquartile range
//	regression  B's median is worse than A's by more than the metric's bound
//	unresolved  a side's run-to-run spread exceeds the bound (unless every B
//	            run beats every A run, which is a gain)
//	same        none of the above
//
// With -same the two sets come from one commit, and compare instead checks
// that they agree: every median within its bound of the other, no failed
// op, and every per-layer count identical across all runs. It exits 1 when
// they do not.
//
// Usage:
//
//	go run ./compare -a 'runs/a*/results.json' -b 'runs/b*/results.json'
//	go run ./compare -same -a 'runs/s1-*/results.json' -b 'runs/s2-*/results.json'
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"pifsrec/bench/stats"
)

func main() {
	a := flag.String("a", "", "glob of the A (parent) side's results.json files")
	b := flag.String("b", "", "glob of the B (change) side's results.json files")
	same := flag.Bool("same", false, "the sides are two sets of one commit: check that they agree")
	flag.Parse()
	if *a == "" || *b == "" || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	as, err := load(*a)
	if err == nil {
		var bs []stats.Results
		if bs, err = load(*b); err == nil {
			var ok bool
			if *same {
				ok = agree(os.Stdout, as, bs)
			} else {
				ok = compare(os.Stdout, as, bs)
			}
			if !ok {
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(1)
}

func load(glob string) ([]stats.Results, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no results match %q", glob)
	}
	sort.Strings(paths)
	out := make([]stats.Results, len(paths))
	for i, p := range paths {
		if out[i], err = stats.Read(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// row is one (workload, metric) across the runs of a set.
type row struct {
	workload, metric string
	unit, better     string
	bound            float64
	a, b             []float64
}

// rows pairs up every metric with a bound (the end-to-end set) that both
// sides report, in a stable order.
func rows(as, bs []stats.Results) []row {
	index := make(map[[2]string]*row)
	var out []*row
	collect := func(set []stats.Results, side int) {
		for _, r := range set {
			for wl, w := range r.Workloads {
				for name, m := range w.Metrics {
					if m.Bound == 0 {
						continue
					}
					key := [2]string{wl, name}
					rw := index[key]
					if rw == nil {
						rw = &row{workload: wl, metric: name, unit: m.Unit, better: m.Better, bound: m.Bound}
						index[key] = rw
						out = append(out, rw)
					}
					if side == 0 {
						rw.a = append(rw.a, m.Value)
					} else {
						rw.b = append(rw.b, m.Value)
					}
				}
			}
		}
	}
	collect(as, 0)
	collect(bs, 1)
	sort.Slice(out, func(i, j int) bool {
		if out[i].workload != out[j].workload {
			return out[i].workload < out[j].workload
		}
		return out[i].metric < out[j].metric
	})
	res := make([]row, 0, len(out))
	for _, r := range out {
		if len(r.a) > 0 && len(r.b) > 0 {
			res = append(res, *r)
		}
	}
	return res
}

// beats reports whether x beats y in the row's direction.
func (r row) beats(x, y float64) bool {
	if r.better == "higher" {
		return x > y
	}
	return x < y
}

// worseBy returns how much worse x is than base, as a share of base.
func (r row) worseBy(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	d := (x - base) / math.Abs(base)
	if r.better == "higher" {
		d = -d
	}
	return d
}

// verdict classifies the B side against the A side.
func verdict(r row) (wins, pairs int, v string) {
	pairs = min(len(r.a), len(r.b))
	for i := 0; i < pairs; i++ {
		if r.beats(r.b[i], r.a[i]) {
			wins++
		}
	}
	q1a, ma, q3a := stats.Quartiles(r.a)
	_, mb, _ := stats.Quartiles(r.b)
	dominates := true
	for _, x := range r.b {
		for _, y := range r.a {
			if !r.beats(x, y) {
				dominates = false
			}
		}
	}
	switch {
	case dominates || (10*wins >= 9*pairs && r.beats(mb, ma) && math.Abs(mb-ma) > q3a-q1a):
		v = "gain"
	case stats.Spread(r.a) > r.bound || stats.Spread(r.b) > r.bound:
		v = "unresolved"
	case r.worseBy(mb, ma) > r.bound:
		v = "regression"
	default:
		v = "same"
	}
	return wins, pairs, v
}

func summary(xs []float64) string {
	q1, m, q3 := stats.Quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", m, q1, q3)
}

// compare prints the A/B table and reports whether no row regressed.
func compare(w io.Writer, as, bs []stats.Results) bool {
	ok := true
	fmt.Fprintf(w, "%-16s %-12s %-30s %-30s %-6s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "wins", "verdict")
	for _, r := range rows(as, bs) {
		wins, pairs, v := verdict(r)
		if v == "regression" {
			ok = false
		}
		fmt.Fprintf(w, "%-16s %-12s %-30s %-30s %2d/%-3d %s (%s, bound %.0f%%)\n",
			r.workload, r.metric, summary(r.a), summary(r.b), wins, pairs, v, r.unit, 100*r.bound)
	}
	return ok
}

// agree checks that two sets of one commit agree within every bound, that
// no op failed, and that per-layer counts repeat exactly.
func agree(w io.Writer, as, bs []stats.Results) bool {
	ok := true
	for _, r := range rows(as, bs) {
		ma, mb := stats.Median(r.a), stats.Median(r.b)
		d := math.Abs(mb-ma) / math.Abs(ma)
		status := "agree"
		if d > r.bound {
			status, ok = "DISAGREE", false
		}
		fmt.Fprintf(w, "%-16s %-12s A %-30s B %-30s diff %5.1f%% spread A %4.1f%% B %4.1f%% bound %2.0f%% %s\n",
			r.workload, r.metric, summary(r.a), summary(r.b), 100*d, 100*stats.Spread(r.a), 100*stats.Spread(r.b), 100*r.bound, status)
	}
	all := append(append([]stats.Results(nil), as...), bs...)
	for _, res := range all {
		for wl, x := range res.Workloads {
			if x.Failed > 0 || !x.Correct {
				fmt.Fprintf(w, "%s: seed %d: %d of %d ops failed\n", wl, res.Seed, x.Failed, x.Attempted)
				ok = false
			}
		}
	}
	for _, line := range countMismatches(all) {
		fmt.Fprintln(w, line)
		ok = false
	}
	return ok
}

// countMismatches lists the per-layer work counts (unit count or bytes)
// that differ between traced runs of the same seed.
func countMismatches(all []stats.Results) []string {
	first := make(map[string]float64)
	var out []string
	for _, res := range all {
		if !res.Trace {
			continue
		}
		for _, wl := range sortedKeys(res.Workloads) {
			for _, name := range sortedKeys(res.Workloads[wl].Metrics) {
				m := res.Workloads[wl].Metrics[name]
				if m.Unit != "count" && m.Unit != "bytes" {
					continue
				}
				key := fmt.Sprintf("seed %d %s %s", res.Seed, wl, name)
				if v, seen := first[key]; !seen {
					first[key] = m.Value
				} else if v != m.Value {
					out = append(out, fmt.Sprintf("%s: count %v differs from %v", key, m.Value, v))
				}
			}
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
