package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "Pearson perfect +", r, 1, 1e-12)
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	almost(t, "Pearson perfect -", r, -1, 1e-12)
}

func TestPearsonKnownValue(t *testing.T) {
	xs := []float64{43, 21, 25, 42, 57, 59}
	ys := []float64{99, 65, 79, 75, 87, 81}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "Pearson", r, 0.529809, 1e-5)
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrMismatched {
		t.Error("mismatched lengths should error")
	}
	if _, err := Pearson(nil, nil); err != ErrEmpty {
		t.Error("empty should be ErrEmpty")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err != ErrShortSample {
		t.Error("single pair should be ErrShortSample")
	}
	if _, err := Pearson([]float64{3, 3, 3}, []float64{1, 2, 3}); err != ErrShortSample {
		t.Error("zero variance should be ErrShortSample")
	}
}

func TestPearsonInvariances(t *testing.T) {
	// Correlation is invariant to positive affine transformations.
	f := func(seed int64, a, b float64) bool {
		rng := newTestRand(seed)
		a = 0.1 + math.Mod(math.Abs(a), 10)
		b = math.Mod(b, 100)
		if math.IsNaN(b) {
			b = 0
		}
		xs := make([]float64, 30)
		ys := make([]float64, 30)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = xs[i] + 0.5*rng.NormFloat64()
		}
		r1, err1 := Pearson(xs, ys)
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = a*xs[i] + b
		}
		r2, err2 := Pearson(scaled, ys)
		return err1 == nil && err2 == nil && math.Abs(r1-r2) < 1e-9 && math.Abs(r1) <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPearsonSymmetry(t *testing.T) {
	xs := []float64{1, 4, 2, 8, 5, 7}
	ys := []float64{2, 3, 1, 9, 4, 6}
	r1, _ := Pearson(xs, ys)
	r2, _ := Pearson(ys, xs)
	almost(t, "symmetry", r1, r2, 1e-15)
}

func TestLogPearson(t *testing.T) {
	// y = x^2 is a perfect log-log relationship.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * x
	}
	r, err := LogPearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "LogPearson power law", r, 1, 1e-12)
	// Non-positive pairs are skipped, not fatal.
	xs2 := []float64{0, 1, 2, 4, 8}
	ys2 := []float64{5, 1, 4, 16, 64}
	r, err = LogPearson(xs2, ys2)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "LogPearson skip zero", r, 1, 1e-12)
	if _, err := LogPearson([]float64{1}, []float64{1, 2}); err != ErrMismatched {
		t.Error("mismatched lengths should error")
	}
	if _, err := LogPearson([]float64{-1, -2}, []float64{1, 2}); err != ErrEmpty {
		t.Error("all-skipped should surface ErrEmpty")
	}
}

func TestRanks(t *testing.T) {
	got := ranks([]float64{10, 20, 20, 5})
	want := []float64{2, 3.5, 3.5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ranks[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLinearRegression(t *testing.T) {
	// Exact line: y = 3 + 2x.
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9, 11}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "Slope", fit.Slope, 2, 1e-12)
	almost(t, "Intercept", fit.Intercept, 3, 1e-12)
	almost(t, "R2", fit.R2, 1, 1e-12)
	almost(t, "ResidStd", fit.ResidStd, 0, 1e-9)
	almost(t, "Predict", fit.Predict(10), 23, 1e-12)
	if fit.N != 5 {
		t.Errorf("N = %d", fit.N)
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	rng := newTestRand(99)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i) / 10
		ys[i] = 1.5 + 0.8*xs[i] + rng.NormFloat64()
	}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "Slope", fit.Slope, 0.8, 0.02)
	almost(t, "Intercept", fit.Intercept, 1.5, 0.5)
	almost(t, "ResidStd", fit.ResidStd, 1, 0.1)
	if fit.R2 < 0.9 {
		t.Errorf("R2 = %v, want > 0.9", fit.R2)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression(nil, nil); err != ErrEmpty {
		t.Error("empty should be ErrEmpty")
	}
	if _, err := LinearRegression([]float64{1}, []float64{2}); err != ErrShortSample {
		t.Error("single point should be ErrShortSample")
	}
	if _, err := LinearRegression([]float64{2, 2}, []float64{1, 5}); err != ErrShortSample {
		t.Error("zero x-variance should be ErrShortSample")
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err != ErrMismatched {
		t.Error("mismatched should be ErrMismatched")
	}
}

func TestLinearRegressionFlatLine(t *testing.T) {
	fit, err := LinearRegression([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "flat slope", fit.Slope, 0, 1e-12)
	almost(t, "flat R2", fit.R2, 1, 1e-12)
}

func TestRegressionResidualsOrthogonalProperty(t *testing.T) {
	// OLS residuals must be orthogonal to x and sum to ~0.
	f := func(seed int64) bool {
		rng := newTestRand(seed)
		n := 50
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = 2*xs[i] + 10*rng.NormFloat64()
		}
		fit, err := LinearRegression(xs, ys)
		if err != nil {
			return false
		}
		var sum, dot float64
		for i := range xs {
			r := ys[i] - fit.Predict(xs[i])
			sum += r
			dot += r * xs[i]
		}
		return math.Abs(sum) < 1e-6*float64(n) && math.Abs(dot) < 1e-4*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
