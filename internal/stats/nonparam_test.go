package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func normalSample(seed int64, n int, mean, sd float64) []float64 {
	rng := newTestRand(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = mean + sd*rng.NormFloat64()
	}
	return out
}

func TestKSTestIdenticalDistributions(t *testing.T) {
	a := normalSample(1, 400, 0, 1)
	b := normalSample(2, 400, 0, 1)
	res, err := KSTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.05 {
		t.Errorf("same-distribution KS rejected: D=%v p=%v", res.D, res.P)
	}
	if res.N1 != 400 || res.N2 != 400 {
		t.Errorf("sizes: %d, %d", res.N1, res.N2)
	}
}

func TestKSTestSeparatedDistributions(t *testing.T) {
	a := normalSample(3, 300, 0, 1)
	b := normalSample(4, 300, 1.2, 1)
	res, err := KSTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Errorf("shifted distributions not detected: D=%v p=%v", res.D, res.P)
	}
	if res.D < 0.3 {
		t.Errorf("D = %v, want a large separation", res.D)
	}
}

func TestKSTestEdgeCases(t *testing.T) {
	if _, err := KSTest(nil, []float64{1}); err != ErrEmpty {
		t.Error("empty sample should error")
	}
	// Completely disjoint supports → D = 1, p ≈ 0.
	res, err := KSTest([]float64{1, 2, 3, 4, 5}, []float64{10, 11, 12, 13, 14})
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 1 {
		t.Errorf("disjoint supports D = %v, want 1", res.D)
	}
	if res.P > 0.01 {
		t.Errorf("disjoint supports p = %v", res.P)
	}
}

func TestKSDBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRand(seed)
		a := make([]float64, 20+rng.IntN(50))
		b := make([]float64, 20+rng.IntN(50))
		for i := range a {
			a[i] = rng.Float64()
		}
		for i := range b {
			b[i] = rng.Float64() * (1 + rng.Float64())
		}
		res, err := KSTest(a, b)
		return err == nil && res.D >= 0 && res.D <= 1 && res.P >= 0 && res.P <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWilcoxonSignedRankDetectsShift(t *testing.T) {
	rng := newTestRand(9)
	n := 120
	before := make([]float64, n)
	after := make([]float64, n)
	for i := 0; i < n; i++ {
		before[i] = 5 + rng.NormFloat64()
		after[i] = before[i] + 0.4 + 0.8*rng.NormFloat64()
	}
	res, err := WilcoxonSignedRank(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-3 {
		t.Errorf("paired shift not detected: z=%v p=%v", res.Z, res.P)
	}
	if res.N != n {
		t.Errorf("used %d pairs, want %d", res.N, n)
	}
}

func TestWilcoxonNull(t *testing.T) {
	rng := newTestRand(10)
	n := 150
	before := make([]float64, n)
	after := make([]float64, n)
	for i := 0; i < n; i++ {
		before[i] = rng.NormFloat64()
		after[i] = rng.NormFloat64()
	}
	// Neither direction rejects: the one-tailed test on the pairs and on
	// the swapped pairs, at 0.025 each (a two-sided 0.05 test).
	res, err := WilcoxonSignedRank(before, after)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := WilcoxonSignedRank(after, before)
	if err != nil {
		t.Fatal(err)
	}
	if p := 2 * math.Min(res.P, rev.P); p < 0.05 {
		t.Errorf("null paired test rejected: z=%v p=%v", res.Z, p)
	}
}

func TestWilcoxonEdgeCases(t *testing.T) {
	if _, err := WilcoxonSignedRank([]float64{1}, []float64{1, 2}); err != ErrMismatched {
		t.Error("mismatched lengths should error")
	}
	// All-zero differences drop out entirely.
	if _, err := WilcoxonSignedRank([]float64{1, 2}, []float64{1, 2}); err != ErrEmpty {
		t.Error("all-tied pairs should error")
	}
	// Every difference positive: one-tailed p must be small.
	res, err := WilcoxonSignedRank(
		[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20},
		[]float64{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.001 {
		t.Errorf("uniformly positive differences p = %v", res.P)
	}
}
