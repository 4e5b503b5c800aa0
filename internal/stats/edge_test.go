package stats

import (
	"math"
	"testing"
)

// The edge-case contract of the descriptive layer, in one table: empty
// samples are the only error; a single observation is a valid (degenerate)
// sample everywhere except the variance family; all-equal samples are
// exact. Infinities propagate silently (garbage in, garbage out — callers
// filter, the stats layer never panics), but the order-statistic family
// (Quantile, Percentile, Median, IQR, Summarize) rejects NaN with ErrNaN:
// sorting places NaNs in unspecified positions, so a NaN-contaminated
// quantile would be nondeterministic rather than merely wrong.

type descCase struct {
	name    string
	xs      []float64
	wantErr bool    // every one-sample function errors
	mean    float64 // asserted when wantErr is false (NaN matched by IsNaN)
	median  float64
}

func descCases() []descCase {
	return []descCase{
		{name: "empty", xs: nil, wantErr: true},
		{name: "single", xs: []float64{3}, mean: 3, median: 3},
		{name: "all-equal", xs: []float64{2, 2, 2, 2}, mean: 2, median: 2},
		{name: "negative", xs: []float64{-5, -1, -3}, mean: -3, median: -3},
	}
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func TestDescriptiveEdgeTable(t *testing.T) {
	t.Parallel()
	for _, c := range descCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			m, errMean := Mean(c.xs)
			md, errMed := Median(c.xs)
			_, _, errMM := MinMax(c.xs)
			_, errSumm := Summarize(c.xs)
			_, errECDF := NewECDF(c.xs)
			_, errCI := MeanCI(c.xs)
			for name, err := range map[string]error{
				"Mean": errMean, "Median": errMed, "MinMax": errMM,
				"Summarize": errSumm, "NewECDF": errECDF, "MeanCI": errCI,
			} {
				if (err != nil) != c.wantErr {
					t.Errorf("%s(%v) error = %v, want error %v", name, c.xs, err, c.wantErr)
				}
			}
			if c.wantErr {
				return
			}
			if !sameFloat(m, c.mean) {
				t.Errorf("Mean(%v) = %v, want %v", c.xs, m, c.mean)
			}
			if !sameFloat(md, c.median) {
				t.Errorf("Median(%v) = %v, want %v", c.xs, md, c.median)
			}
		})
	}
}

// TestOrderStatisticsRejectNaN pins the NaN contract of the quantile
// family (NewECDF included — it sorts too): any NaN anywhere in the sample
// is ErrNaN, deterministically, regardless of position or the rest of the
// data.
func TestOrderStatisticsRejectNaN(t *testing.T) {
	t.Parallel()
	nan := math.NaN()
	samples := [][]float64{
		{nan},
		{nan, 1, 2},
		{1, nan, 2},
		{1, 2, nan},
		{nan, nan},
		{math.Inf(1), nan, math.Inf(-1)},
	}
	for _, xs := range samples {
		if _, err := Quantile(xs, 0.5); err != ErrNaN {
			t.Errorf("Quantile(%v) err = %v, want ErrNaN", xs, err)
		}
		if _, err := NewECDF(xs); err != ErrNaN {
			t.Errorf("NewECDF(%v) err = %v, want ErrNaN", xs, err)
		}
		if _, err := Median(xs); err != ErrNaN {
			t.Errorf("Median(%v) err = %v, want ErrNaN", xs, err)
		}
		if _, err := Summarize(xs); err != ErrNaN {
			t.Errorf("Summarize(%v) err = %v, want ErrNaN", xs, err)
		}
	}
	// Infinities are not NaNs: they sort deterministically and pass through.
	inf := []float64{math.Inf(-1), 0, math.Inf(1)}
	if med, err := Median(inf); err != nil || med != 0 {
		t.Errorf("Median(±Inf sample) = %v, %v; want 0, nil", med, err)
	}
	// The empty-sample error still wins over everything.
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Errorf("Quantile(nil) err = %v, want ErrEmpty", err)
	}
}

// TestQuantileSortedFastPath pins the sorted-input fast path: sorted input
// is used in place (no copy, no mutation) and yields exactly the values the
// copying slow path computes for a shuffled permutation of the same data.
func TestQuantileSortedFastPath(t *testing.T) {
	t.Parallel()
	sorted := []float64{1, 2, 3, 5, 8, 13, 21, 34}
	shuffled := []float64{21, 2, 34, 1, 8, 5, 13, 3}
	for _, p := range []float64{0, 0.05, 0.25, 0.5, 0.75, 0.95, 1} {
		a, err := Quantile(sorted, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Quantile(shuffled, p)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("Quantile(p=%v): sorted %v != shuffled %v", p, a, b)
		}
	}
	sa, err := Summarize(sorted)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Summarize(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Errorf("Summarize: sorted %+v != shuffled %+v", sa, sb)
	}
	for i, want := range []float64{1, 2, 3, 5, 8, 13, 21, 34} {
		if sorted[i] != want {
			t.Fatalf("fast path mutated its input: %v", sorted)
		}
	}
	for i, want := range []float64{21, 2, 34, 1, 8, 5, 13, 3} {
		if shuffled[i] != want {
			t.Fatalf("slow path mutated its input: %v", shuffled)
		}
	}
}

func TestVarianceNeedsTwo(t *testing.T) {
	t.Parallel()
	if _, err := Variance([]float64{3}); err == nil {
		t.Error("Variance of a single observation should error")
	}
	if _, err := StdDev([]float64{3}); err == nil {
		t.Error("StdDev of a single observation should error")
	}
	v, err := Variance([]float64{2, 2, 2, 2})
	if err != nil || v != 0 {
		t.Errorf("Variance(all-equal) = %v, %v; want 0, nil", v, err)
	}
}

// TestNonFinitePropagation pins the silent-propagation contract of the
// moment statistics: NaN and Inf observations never error and never panic;
// the poison carries through, while order statistics that only compare
// (MinMax) skip past NaN. The sorting order statistics are the exception —
// they reject NaN with ErrNaN (see TestOrderStatisticsRejectNaN).
func TestNonFinitePropagation(t *testing.T) {
	t.Parallel()
	nan, inf := math.NaN(), math.Inf(1)

	m, err := Mean([]float64{1, nan, 3})
	if err != nil || !math.IsNaN(m) {
		t.Errorf("Mean with NaN = %v, %v; want NaN, nil", m, err)
	}
	m, err = Mean([]float64{1, inf, 3})
	if err != nil || !math.IsInf(m, 1) {
		t.Errorf("Mean with +Inf = %v, %v; want +Inf, nil", m, err)
	}
	v, err := Variance([]float64{1, inf, 3})
	if err != nil || !math.IsNaN(v) {
		t.Errorf("Variance with +Inf = %v, %v; want NaN (Inf-Inf), nil", v, err)
	}
	lo, hi, err := MinMax([]float64{1, nan, 3})
	if err != nil || lo != 1 || hi != 3 {
		t.Errorf("MinMax with NaN = %v, %v, %v; want 1, 3, nil", lo, hi, err)
	}
	lo, hi, err = MinMax([]float64{1, inf, 3})
	if err != nil || lo != 1 || !math.IsInf(hi, 1) {
		t.Errorf("MinMax with +Inf = %v, %v, %v; want 1, +Inf, nil", lo, hi, err)
	}
	if _, err := NewECDF([]float64{1, nan, 3}); err != ErrNaN {
		t.Errorf("NewECDF with NaN err = %v; want ErrNaN", err)
	}
	if _, err := NewECDF([]float64{1, inf, 3}); err != nil {
		t.Errorf("NewECDF with +Inf errored: %v (infinities sort fine)", err)
	}
	if _, err := Quantile([]float64{1, nan}, 0.5); err != ErrNaN {
		t.Errorf("Quantile with NaN err = %v; want ErrNaN", err)
	}
}

// TestPairedEdgeTable sweeps the two-sample machinery over its degenerate
// inputs: constant series kill Pearson and the regression (zero variance),
// all-tied pairs starve the Wilcoxon test, and the KS test degrades
// gracefully instead of erroring.
func TestPairedEdgeTable(t *testing.T) {
	t.Parallel()
	nan := math.NaN()

	if _, err := Pearson([]float64{1, 2, 3}, []float64{2, 2, 2}); err == nil {
		t.Error("Pearson against a constant series should error (zero variance)")
	}
	if r, err := Pearson([]float64{1, nan, 3}, []float64{1, 2, 3}); err != nil || !math.IsNaN(r) {
		t.Errorf("Pearson with NaN = %v, %v; want NaN, nil", r, err)
	}
	if _, err := LinearRegression([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("LinearRegression on constant x should error")
	}
	k, err := KSTest([]float64{1}, []float64{2})
	if err != nil || k.D != 1 {
		t.Errorf("KS of disjoint singletons = %v, %v; want D=1, nil", k.D, err)
	}
	if _, err := WilcoxonSignedRank([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("Wilcoxon with every pair tied should error (no informative pairs)")
	}
}
