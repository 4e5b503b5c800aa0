package stats

import (
	"math"
	"testing"

	"github.com/nwca/broadband/internal/randx"
)

// lognormalSample draws a deterministic heavy-tailed sample shaped like the
// broadband metrics the sketches will meet (bitrates spanning decades).
func lognormalSample(n int, seed uint64) []float64 {
	rng := randx.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.LogNormalMedian(8, 1.1) // median 8 Mbps, wide spread
	}
	return xs
}

func TestMomentsMatchesTwoPass(t *testing.T) {
	t.Parallel()
	xs := lognormalSample(5000, 7)
	var m Moments
	for _, x := range xs {
		if err := m.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	wantMean, _ := Mean(xs)
	wantVar, _ := Variance(xs)
	wantLo, wantHi, _ := MinMax(xs)
	gotMean, err := m.Mean()
	if err != nil {
		t.Fatal(err)
	}
	gotVar, err := m.Variance()
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(gotMean-wantMean) / wantMean; rel > 1e-12 {
		t.Errorf("Welford mean %v vs two-pass %v (rel %g)", gotMean, wantMean, rel)
	}
	if rel := math.Abs(gotVar-wantVar) / wantVar; rel > 1e-9 {
		t.Errorf("Welford variance %v vs two-pass %v (rel %g)", gotVar, wantVar, rel)
	}
	if lo, _ := m.Min(); lo != wantLo {
		t.Errorf("Min = %v, want %v", lo, wantLo)
	}
	if hi, _ := m.Max(); hi != wantHi {
		t.Errorf("Max = %v, want %v", hi, wantHi)
	}
	if m.N() != int64(len(xs)) {
		t.Errorf("N = %d, want %d", m.N(), len(xs))
	}
}

func TestMomentsEdge(t *testing.T) {
	t.Parallel()
	var m Moments
	if _, err := m.Mean(); err != ErrEmpty {
		t.Errorf("empty Mean err = %v, want ErrEmpty", err)
	}
	if err := m.Add(math.NaN()); err != ErrNaN {
		t.Errorf("Add(NaN) err = %v, want ErrNaN", err)
	}
	if m.N() != 0 {
		t.Errorf("rejected NaN still counted: N = %d", m.N())
	}
	if err := m.Add(4); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Variance(); err != ErrShortSample {
		t.Errorf("single-point Variance err = %v, want ErrShortSample", err)
	}
	mean, err := m.Mean()
	if err != nil || mean != 4 {
		t.Errorf("single-point Mean = %v, %v; want 4, nil", mean, err)
	}
}

func TestOnlineECDFQuantileWithinBinResolution(t *testing.T) {
	t.Parallel()
	xs := lognormalSample(30000, 3)
	// Span chosen like the production sketches: generous decades around
	// the data with 2048 log bins → ≲0.7% relative bin width.
	e, err := NewOnlineECDF(0.01, 10000, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if err := e.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	relWidth := math.Pow(10000/0.01, 1.0/2048) - 1
	for _, p := range []float64{0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99} {
		got, err := e.Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Quantile(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		// One bin of relative error is the declared worst case; allow two
		// for the interpolation at bin boundaries.
		if rel := math.Abs(got-want) / want; rel > 2*relWidth {
			t.Errorf("OnlineECDF.Quantile(%v) = %v, exact %v (rel %.5f > %.5f)",
				p, got, want, rel, 2*relWidth)
		}
	}
	// Extremes are exact: the sketch tracks true min/max.
	wantLo, wantHi, _ := MinMax(xs)
	if got, _ := e.Quantile(0); got != wantLo {
		t.Errorf("Quantile(0) = %v, want exact min %v", got, wantLo)
	}
	if got, _ := e.Quantile(1); got != wantHi {
		t.Errorf("Quantile(1) = %v, want exact max %v", got, wantHi)
	}
}

func TestOnlineECDFEdge(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		lo, hi float64
		bins   int
	}{
		{1, 1, 8},  // degenerate span
		{5, 1, 8},  // inverted span
		{1, 10, 0}, // no bins
		{0, 10, 8}, // log spacing needs positive lo
		{-1, 10, 8},
		{math.NaN(), 1, 8},
	} {
		if _, err := NewOnlineECDF(c.lo, c.hi, c.bins); err != ErrInvalidBins {
			t.Errorf("NewOnlineECDF(%v,%v,%d) err = %v, want ErrInvalidBins",
				c.lo, c.hi, c.bins, err)
		}
	}
	e, err := NewOnlineECDF(1, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Quantile(0.5); err != ErrEmpty {
		t.Errorf("empty Quantile err = %v, want ErrEmpty", err)
	}
	if err := e.Add(math.NaN()); err != ErrNaN {
		t.Errorf("Add(NaN) err = %v, want ErrNaN", err)
	}
	if _, err := e.Quantile(0.5); err != ErrEmpty {
		t.Errorf("rejected NaN still counted: Quantile err = %v, want ErrEmpty", err)
	}
	// Out-of-span values clamp into terminal bins but keep exact extrema.
	for _, x := range []float64{-3, 0.5, 12} {
		if err := e.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := e.Quantile(0); got != -3 {
		t.Errorf("Quantile(0) = %v, want -3", got)
	}
	if got, _ := e.Quantile(1); got != 12 {
		t.Errorf("Quantile(1) = %v, want 12", got)
	}
}
