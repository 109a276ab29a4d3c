package sim

import "math"

// MeanStd returns the mean and population standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	for _, v := range xs {
		d := v - mean
		std += d * d
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

// MinMaxNormalize maps xs onto [0,1] by min-max normalization, matching the
// paper's figure normalization ("The plot uses min-max normalization",
// Fig 12). With all-equal inputs it returns all zeros.
func MinMaxNormalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	lo, hi := xs[0], xs[0]
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		return out
	}
	for i, v := range xs {
		out[i] = (v - lo) / (hi - lo)
	}
	return out
}
