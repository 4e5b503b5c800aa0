package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "Mean", m, 5, 1e-12)
	v, err := Variance(xs)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "Variance", v, 32.0/7, 1e-12)
	sd, err := StdDev(xs)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "StdDev", sd, math.Sqrt(32.0/7), 1e-12)
}

func TestEmptyAndShortErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Variance([]float64{1}); err != ErrShortSample {
		t.Errorf("Variance(1 elem) err = %v, want ErrShortSample", err)
	}
	if _, err := Variance(nil); err != ErrEmpty {
		t.Errorf("Variance(nil) err = %v, want ErrEmpty", err)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Errorf("MinMax(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil {
		t.Fatal(err)
	}
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", lo, hi)
	}
}

func TestMeanCI(t *testing.T) {
	// n=9, sd=1: margin = t_{.975,8} / 3 ≈ 2.306/3.
	xs := make([]float64, 9)
	for i := range xs {
		xs[i] = float64(i%2)*2 - 1 // alternating -1, 1... fix below for sd
	}
	xs = []float64{-1, 1, -1, 1, -1, 1, -1, 1, 0} // mean 0, var 1 (n-1 = 8, ss = 8)
	iv, err := MeanCI(xs)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "CI point", iv.Point, 0, 1e-12)
	almost(t, "CI halfwidth", (iv.Hi-iv.Lo)/2, 2.30600413520417/3, 1e-6)
	// Degenerate single-sample interval.
	iv, err = MeanCI([]float64{4.2})
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 4.2 || iv.Hi != 4.2 {
		t.Errorf("single-sample CI = [%v, %v], want degenerate at 4.2", iv.Lo, iv.Hi)
	}
	if _, err := MeanCI(nil); err != ErrEmpty {
		t.Error("MeanCI(nil) should be ErrEmpty")
	}
}

func TestMeanCICoversTruthProperty(t *testing.T) {
	// The 95% CI from a decent-size normal sample should contain the true
	// mean the vast majority of the time. With fixed quick seeds this is a
	// deterministic regression test, tolerant to a few misses.
	misses := 0
	trials := 0
	f := func(seed int64) bool {
		trials++
		rng := newTestRand(seed)
		xs := make([]float64, 40)
		for i := range xs {
			xs[i] = 3 + 2*rng.NormFloat64()
		}
		iv, err := MeanCI(xs)
		if err != nil {
			return false
		}
		if iv.Lo > 3 || iv.Hi < 3 {
			misses++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if frac := float64(misses) / float64(trials); frac > 0.12 {
		t.Errorf("CI missed true mean in %.0f%% of samples, want ≈5%%", 100*frac)
	}
}
