package randx

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42).Split("demand")
	b := New(42).Split("demand")
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("same seed/label diverged at draw %d: %v != %v", i, x, y)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	// Consuming draws from one child must not perturb a sibling.
	root := New(7)
	a1 := root.Split("a")
	want := make([]float64, 10)
	for i := range want {
		want[i] = a1.Float64()
	}

	root2 := New(7)
	b := root2.Split("b")
	for i := 0; i < 1000; i++ {
		b.Float64()
	}
	a2 := root2.Split("a")
	for i := range want {
		if got := a2.Float64(); got != want[i] {
			t.Fatalf("sibling consumption changed stream at %d: %v != %v", i, got, want[i])
		}
	}
}

func TestSplitLabelsDiffer(t *testing.T) {
	root := New(1)
	a := root.Split("alpha")
	b := root.Split("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different labels look correlated: %d/64 equal draws", same)
	}
}

func TestSplitNDiffer(t *testing.T) {
	root := New(1)
	a := root.SplitN("user", 1)
	b := root.SplitN("user", 2)
	c := root.SplitN("user", 1)
	if a.Float64() != c.Float64() {
		t.Error("SplitN with same index should be identical")
	}
	a2, b2 := New(1).SplitN("user", 1), b
	eq := 0
	for i := 0; i < 64; i++ {
		if a2.Float64() == b2.Float64() {
			eq++
		}
	}
	if eq > 2 {
		t.Errorf("SplitN(1) and SplitN(2) look correlated: %d/64 equal", eq)
	}
}

func sampleMeanVar(n int, draw func() float64) (mean, variance float64) {
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := draw()
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}

func TestNormalMoments(t *testing.T) {
	s := New(3).Split("normal")
	mean, v := sampleMeanVar(200000, func() float64 { return s.Normal(5, 2) })
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("normal mean = %v, want ~5", mean)
	}
	if math.Abs(v-4) > 0.15 {
		t.Errorf("normal var = %v, want ~4", v)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(4).Split("lognormal")
	n := 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.LogNormalMedian(3.5, 0.8)
	}
	// Median of a log-normal equals the median parameter.
	lt := 0
	for _, v := range vals {
		if v < 3.5 {
			lt++
		}
	}
	frac := float64(lt) / float64(n)
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fraction below median = %v, want ~0.5", frac)
	}
	if s.LogNormalMedian(0, 1) != 0 {
		t.Error("LogNormalMedian(0, ...) should be 0")
	}
}

func TestBoundedParetoSupport(t *testing.T) {
	s := New(61).Split("bpareto")
	for i := 0; i < 20000; i++ {
		v := s.BoundedPareto(1, 100, 1.2)
		if v < 1 || v > 100 {
			t.Fatalf("BoundedPareto draw %v outside [1, 100]", v)
		}
	}
	if got := s.BoundedPareto(5, 3, 1); got != 5 {
		t.Errorf("degenerate bounds should return xm, got %v", got)
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(10).Split("poisson")
	for _, mean := range []float64{0.5, 4, 30, 200} {
		sum := 0.0
		n := 50000
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / float64(n)
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

func TestBool(t *testing.T) {
	s := New(11).Split("bool")
	if s.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) must be true")
	}
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / float64(n); math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate = %v", frac)
	}
}

func TestCategorical(t *testing.T) {
	s := New(12).Split("cat")
	counts := make([]int, 3)
	n := 90000
	for i := 0; i < n; i++ {
		i, err := s.CategoricalErr([]float64{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		counts[i]++
	}
	for i, want := range []float64{1.0 / 6, 2.0 / 6, 3.0 / 6} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Categorical index %d freq = %v, want ~%v", i, got, want)
		}
	}
	// All-zero weights fall back to uniform, negative weights are ignored.
	idx, _ := s.CategoricalErr([]float64{0, 0})
	if idx != 0 && idx != 1 {
		t.Errorf("Categorical zero weights gave %d", idx)
	}
	for i := 0; i < 100; i++ {
		if i, _ := s.CategoricalErr([]float64{-5, 0, 1}); i != 2 {
			t.Fatal("Categorical must never pick a non-positive weight when a positive one exists")
		}
	}
}

func TestCategoricalErr(t *testing.T) {
	// Empty weights surface the sentinel instead of panicking.
	for _, weights := range [][]float64{nil, {}} {
		i, err := New(1).CategoricalErr(weights)
		if !errors.Is(err, ErrEmptyWeights) {
			t.Errorf("CategoricalErr(%v) error = %v, want ErrEmptyWeights", weights, err)
		}
		if i != -1 {
			t.Errorf("CategoricalErr(%v) index = %d, want -1", weights, i)
		}
	}
}

func TestTruncNormalBounds(t *testing.T) {
	s := New(13).Split("trunc")
	f := func(seed int64) bool {
		v := s.TruncNormal(10, 5, 8, 12)
		return v >= 8 && v <= 12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Deep-tail truncation falls back to clamping but stays in bounds.
	v := s.TruncNormal(0, 0.001, 50, 60)
	if v < 50 || v > 60 {
		t.Errorf("deep-tail TruncNormal = %v outside [50,60]", v)
	}
	// Swapped bounds are tolerated.
	v = s.TruncNormal(0, 1, 2, -2)
	if v < -2 || v > 2 {
		t.Errorf("swapped-bound TruncNormal = %v outside [-2,2]", v)
	}
}

func TestPermAndShuffle(t *testing.T) {
	s := New(14).Split("perm")
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
	vals := []int{1, 2, 3, 4, 5}
	sum := 0
	s.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for _, v := range vals {
		sum += v
	}
	if sum != 15 {
		t.Errorf("Shuffle changed multiset, sum = %d", sum)
	}
}
