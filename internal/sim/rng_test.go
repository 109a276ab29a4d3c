package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(9)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(1234)
	const buckets = 10
	const draws = 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d count %d deviates >5%% from %v", i, c, want)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(55)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(77)
	z := NewZipf(r, 1000, 1.0)
	counts := make([]int, 1000)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Draw()]++
	}
	// Item 0 should be much more popular than item 500 under s=1.
	if counts[0] < counts[500]*20 {
		t.Errorf("zipf not skewed: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
	// The head (top 10% of items) should hold well over half the mass at s=1.
	head := 0
	for i := 0; i < 100; i++ {
		head += counts[i]
	}
	if float64(head)/draws < 0.5 {
		t.Errorf("zipf head mass = %v, want > 0.5", float64(head)/draws)
	}
}

func TestZipfZeroExponentIsUniform(t *testing.T) {
	r := NewRNG(99)
	z := NewZipf(r, 100, 0)
	counts := make([]int, 100)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Draw()]++
	}
	want := float64(draws) / 100
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.15 {
			t.Errorf("bucket %d = %d, want ~%v", i, c, want)
		}
	}
}

func TestZipfDrawInRange(t *testing.T) {
	r := NewRNG(5)
	z := NewZipf(r, 17, 0.8)
	for i := 0; i < 10000; i++ {
		v := z.Draw()
		if v < 0 || v >= 17 {
			t.Fatalf("Draw out of range: %d", v)
		}
	}
}
