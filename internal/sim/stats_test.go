package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMinMaxNormalize(t *testing.T) {
	out := MinMaxNormalize([]float64{10, 20, 30})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestMinMaxNormalizeDegenerate(t *testing.T) {
	out := MinMaxNormalize([]float64{7, 7, 7})
	for _, v := range out {
		if v != 0 {
			t.Fatalf("constant input should normalize to zeros, got %v", out)
		}
	}
	if len(MinMaxNormalize(nil)) != 0 {
		t.Fatal("nil input should give empty output")
	}
}

func TestMinMaxNormalizeProperty(t *testing.T) {
	f := func(raw []int32) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		out := MinMaxNormalize(xs)
		for _, v := range out {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return len(out) == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Errorf("mean = %v, want 5", mean)
	}
	if std != 2 {
		t.Errorf("std = %v, want 2", std)
	}
	mean, std = MeanStd(nil)
	if mean != 0 || std != 0 {
		t.Error("empty MeanStd should be zeros")
	}
}
