package sim

import "math"

// RNG is a deterministic SplitMix64-based pseudo-random number generator.
// Every stochastic model in the repository draws from an RNG seeded from the
// experiment configuration, so identical configs reproduce identical runs
// bit-for-bit — a property the paper's simulator relies on for its ablation
// comparisons.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Seed zero is remapped so the
// zero value still produces a usable stream.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next value in the SplitMix64 stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n).
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 <= 1e-300 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Zipf draws from a Zipfian distribution over [0, n) with exponent s using
// inverse-CDF sampling over a precomputed table. Build once with NewZipf.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf precomputes the CDF for a Zipf(s) distribution over n items.
// s=0 degenerates to uniform; typical DLRM traces resemble s in [0.6, 1.2].
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("sim: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1.0 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1.0
	return &Zipf{cdf: cdf, rng: rng}
}

// Draw samples one item index; index 0 is the most popular item.
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
