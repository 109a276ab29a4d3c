package scenario

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pifsrec/internal/sim"
	"pifsrec/internal/trace"
)

// writeArrivalTrace saves a small PIFSTRC1 file whose bag sizes are exactly
// sizes, returning its path.
func writeArrivalTrace(t *testing.T, sizes []int) string {
	t.Helper()
	tr := &trace.Trace{Name: "arrivals", Tables: 1, RowsPerTable: 16}
	for _, n := range sizes {
		idx := make([]uint32, n)
		tr.Bags = append(tr.Bags, trace.Bag{Table: 0, Indices: idx})
	}
	path := filepath.Join(t.TempDir(), "arrivals.trc")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestArrivalsDeterministicAndOrdered is the generator half of the
// scenario-determinism gate: identical specs emit identical schedules, the
// schedule is nondecreasing, and a different seed emits a different one.
func TestArrivalsDeterministicAndOrdered(t *testing.T) {
	arr := writeArrivalTrace(t, []int{4, 1, 9, 2})
	specs := []Spec{
		{Kind: Poisson, QPS: 2e6, Seed: 11},
		{Kind: Diurnal, QPS: 2e6, Swing: 0.8, PeriodNS: 50_000, Seed: 11},
		{Kind: Trace, QPS: 2e6, ArrivalTracePath: arr},
	}
	for _, sp := range specs {
		sp := sp
		t.Run(string(sp.Kind), func(t *testing.T) {
			a, err := sp.Arrivals(500)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sp.Arrivals(500)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("identical specs emitted different schedules")
			}
			if len(a) != 500 {
				t.Fatalf("asked for 500 arrivals, got %d", len(a))
			}
			for i := 1; i < len(a); i++ {
				if a[i] < a[i-1] {
					t.Fatalf("arrivals not nondecreasing at %d: %d after %d", i, a[i], a[i-1])
				}
			}
			if sp.Kind == Trace {
				return // seedless: the file shapes the gaps
			}
			sp2 := sp
			sp2.Seed = 999
			c, err := sp2.Arrivals(500)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a, c) {
				t.Fatal("different seeds emitted identical schedules")
			}
		})
	}
}

// TestPoissonMeanRate checks the law-of-large-numbers sanity: the empirical
// rate over many draws lands within a few percent of QPS.
func TestPoissonMeanRate(t *testing.T) {
	sp := Spec{Kind: Poisson, QPS: 1e6, Seed: 3}
	n := 20000
	a, err := sp.Arrivals(n)
	if err != nil {
		t.Fatal(err)
	}
	gotQPS := float64(n-1) / float64(a[n-1]-a[0]) * 1e9
	if math.Abs(gotQPS-sp.QPS)/sp.QPS > 0.05 {
		t.Fatalf("empirical rate %v, configured %v", gotQPS, sp.QPS)
	}
}

// TestDiurnalModulation checks the rate curve actually modulates: phases
// where sin is positive must collect substantially more arrivals than phases
// where it is negative, at the configured swing.
func TestDiurnalModulation(t *testing.T) {
	sp := Spec{Kind: Diurnal, QPS: 1e6, Swing: 0.9, PeriodNS: 100_000, Seed: 5}
	a, err := sp.Arrivals(30000)
	if err != nil {
		t.Fatal(err)
	}
	var up, down int
	for _, at := range a {
		phase := float64(at%100_000) / 100_000
		if phase < 0.5 {
			up++ // sin positive: above-mean rate
		} else {
			down++
		}
	}
	// At swing 0.9 the expected split is (1+2*0.9/π) : (1-2*0.9/π) ≈ 61:39.
	if up < down*3/2 {
		t.Fatalf("diurnal modulation too weak: %d in peak half-periods vs %d in trough", up, down)
	}
}

// TestTraceGapsShape checks the trace generator's contract: gaps are
// proportional to recorded bag sizes, the mean rate is exactly QPS, and the
// stream cycles when asked for more arrivals than the file has bags.
func TestTraceGapsShape(t *testing.T) {
	sizes := []int{2, 8, 4}
	arr := writeArrivalTrace(t, sizes)
	sp := Spec{Kind: Trace, QPS: 1e6, ArrivalTracePath: arr}
	a, err := sp.Arrivals(9) // 3 full cycles
	if err != nil {
		t.Fatal(err)
	}
	// Mean size is 14/3, so a size-2 bag's gap is 2/(14/3) of the 1000ns
	// mean gap, etc. Reconstruct gaps and check proportionality.
	meanGap := 1e9 / sp.QPS
	prev := int64(0)
	for i, at := range a {
		gap := float64(int64(at) - prev)
		prev = int64(at)
		want := float64(sizes[i%3]) * 3 / 14 * meanGap
		if math.Abs(gap-want) > 1.5 { // Tick truncation slack
			t.Fatalf("gap %d = %v, want ~%v (size %d)", i, gap, want, sizes[i%3])
		}
	}
	if _, err := (&Spec{Kind: Trace, QPS: 1e6, ArrivalTracePath: writeArrivalTrace(t, nil)}).Arrivals(4); err == nil {
		t.Fatal("empty arrival trace accepted")
	}
}

// TestArrivalsPastInputBound checks that a rate too low for the requests
// asked of it is an error from every generator once an arrival would fall
// past sim.MaxInputNS, rather than a tick that wraps negative.
func TestArrivalsPastInputBound(t *testing.T) {
	arr := writeArrivalTrace(t, []int{4, 1, 9, 2})
	for _, sp := range []Spec{
		{Kind: Poisson, QPS: 1e-9, Seed: 1},
		{Kind: Diurnal, QPS: 1e-9, Seed: 1},
		{Kind: Trace, QPS: 1e-9, ArrivalTracePath: arr},
	} {
		if _, err := sp.Arrivals(64); err == nil || !strings.Contains(err.Error(), "latest time an input may name") {
			t.Errorf("%s at %v qps: err %v, want the input bound named", sp.Kind, sp.QPS, err)
		}
		// A low but workable rate stays inside the bound.
		sp.QPS = 1e-3
		a, err := sp.Arrivals(64)
		if err != nil {
			t.Fatalf("%s at %v qps: %v", sp.Kind, sp.QPS, err)
		}
		if last := a[len(a)-1]; last <= 0 || last > sim.MaxInputNS {
			t.Fatalf("%s at %v qps: last arrival %d", sp.Kind, sp.QPS, last)
		}
	}
}

// TestNormalizedCanonicalizes pins the normalization rules the canonical
// config encoding depends on: defaults land, kind-irrelevant fields zero,
// and equivalent specs become identical values.
func TestNormalizedCanonicalizes(t *testing.T) {
	d, err := Spec{Kind: Diurnal, QPS: 5, ArrivalTracePath: "stray"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if d.Swing != DefaultSwing || d.PeriodNS != DefaultPeriodNS || d.ArrivalTracePath != "" {
		t.Fatalf("diurnal normalization wrong: %+v", d)
	}
	p, err := Spec{Kind: Poisson, QPS: 5, Swing: 0.25, PeriodNS: 7}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if p != (Spec{Kind: Poisson, QPS: 5}) {
		t.Fatalf("poisson kept irrelevant fields: %+v", p)
	}
	z, err := Spec{}.Normalized()
	if err != nil || z != (Spec{}) {
		t.Fatalf("zero spec did not normalize to itself: %+v, %v", z, err)
	}

	bad := []Spec{
		{Kind: "bursty", QPS: 1},
		{Kind: Poisson},
		{Kind: Poisson, QPS: -1},
		{Kind: Poisson, QPS: math.Inf(1)},
		{Kind: Poisson, QPS: math.NaN()},
		{Kind: Poisson, QPS: 1, SLONS: -1},
		{Kind: Diurnal, QPS: 1, Swing: 2},
		{Kind: Diurnal, QPS: 1, Swing: -0.1},
		{Kind: Diurnal, QPS: 1, PeriodNS: -5},
		{Kind: Trace, QPS: 1},
	}
	for _, sp := range bad {
		if _, err := sp.Normalized(); err == nil {
			t.Errorf("Normalized accepted %+v", sp)
		}
		sp := sp
		if err := sp.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", sp)
		}
	}
}

// TestParseRejectsUnknownFields: a typo'd key must fail loudly, not run a
// silently different scenario.
func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"kind":"poisson","qps":100,"slons":5}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	sp, err := Parse([]byte(`{"kind":"poisson","qps":100,"slo_ns":5,"seed":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != Poisson || sp.QPS != 100 || sp.SLONS != 5 || sp.Seed != 2 {
		t.Fatalf("parsed wrong: %+v", sp)
	}
}

// TestHashArrivalTrace is the cache-identity property: content moves with
// the file, edits change it.
func TestHashArrivalTrace(t *testing.T) {
	p1 := writeArrivalTrace(t, []int{3, 3})
	h1, err := HashArrivalTrace(p1)
	if err != nil {
		t.Fatal(err)
	}
	moved := filepath.Join(t.TempDir(), "renamed.trc")
	data, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(moved, data, 0o644); err != nil {
		t.Fatal(err)
	}
	h2, err := HashArrivalTrace(moved)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("hash changed under rename")
	}
	h3, err := HashArrivalTrace(writeArrivalTrace(t, []int{3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("different content hashed identically")
	}
	if _, err := HashArrivalTrace(filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Fatal("missing file hashed")
	}
}
