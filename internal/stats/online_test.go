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
	if err := m.AddAll(xs); err != nil {
		t.Fatal(err)
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

// TestMomentsMerge pins the shard-fold contract: accumulating a sample in
// one pass and merging per-chunk accumulators agree to floating-point
// association, for uneven chunk boundaries and empty chunks.
func TestMomentsMerge(t *testing.T) {
	t.Parallel()
	xs := lognormalSample(4001, 11)
	var whole Moments
	if err := whole.AddAll(xs); err != nil {
		t.Fatal(err)
	}
	bounds := []int{0, 17, 17, 1300, 4001} // includes an empty chunk
	var merged Moments
	for i := 0; i+1 < len(bounds); i++ {
		var part Moments
		if err := part.AddAll(xs[bounds[i]:bounds[i+1]]); err != nil {
			t.Fatal(err)
		}
		merged.Merge(&part)
	}
	if merged.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", merged.N(), whole.N())
	}
	wm, _ := whole.Mean()
	mm, _ := merged.Mean()
	if math.Abs(wm-mm)/wm > 1e-12 {
		t.Errorf("merged mean %v vs whole %v", mm, wm)
	}
	wv, _ := whole.Variance()
	mv, _ := merged.Variance()
	if math.Abs(wv-mv)/wv > 1e-9 {
		t.Errorf("merged variance %v vs whole %v", mv, wv)
	}
	wlo, _ := whole.Min()
	mlo, _ := merged.Min()
	whi, _ := whole.Max()
	mhi, _ := merged.Max()
	if wlo != mlo || whi != mhi {
		t.Errorf("merged range [%v,%v] vs whole [%v,%v]", mlo, mhi, wlo, whi)
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
	// Merging an empty accumulator is a no-op in both directions.
	var empty Moments
	m.Merge(&empty)
	if m.N() != 1 {
		t.Errorf("merge of empty changed N to %d", m.N())
	}
	empty.Merge(&m)
	if got, _ := empty.Mean(); got != 4 {
		t.Errorf("merge into empty lost the state: mean %v", got)
	}
}

func TestP2AccuracyVsExact(t *testing.T) {
	t.Parallel()
	for _, n := range []int{50, 1000, 20000} {
		xs := lognormalSample(n, uint64(n))
		for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
			est, err := NewP2(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range xs {
				if err := est.Add(x); err != nil {
					t.Fatal(err)
				}
			}
			got, err := est.Quantile()
			if err != nil {
				t.Fatal(err)
			}
			want, err := Quantile(xs, p)
			if err != nil {
				t.Fatal(err)
			}
			// P² converges on smooth distributions; the band is far
			// looser than observed error at scale yet still catches a
			// broken marker update outright. Small heavy-tailed samples
			// are where P² is legitimately rough, so n=50 only gets a
			// sanity band.
			tol := 0.10
			if n < 1000 {
				tol = 0.40
			}
			if rel := math.Abs(got-want) / want; rel > tol {
				t.Errorf("P2(n=%d, p=%v) = %v, exact %v (rel %.3f)", n, p, got, want, rel)
			}
		}
	}
}

func TestP2SmallSamplesExact(t *testing.T) {
	t.Parallel()
	est, err := NewP2(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Quantile(); err != ErrEmpty {
		t.Errorf("empty Quantile err = %v, want ErrEmpty", err)
	}
	for _, x := range []float64{9, 1, 5} {
		if err := est.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	got, err := est.Quantile()
	if err != nil || got != 5 {
		t.Errorf("P2 median of {9,1,5} = %v, %v; want exact 5", got, err)
	}
	if err := est.Add(math.NaN()); err != ErrNaN {
		t.Errorf("Add(NaN) err = %v, want ErrNaN", err)
	}
	if est.N() != 3 {
		t.Errorf("rejected NaN still counted: N = %d", est.N())
	}
	for _, p := range []float64{0, 1, -0.3, 1.7, math.NaN()} {
		if _, err := NewP2(p); err != ErrInvalidQuantile {
			t.Errorf("NewP2(%v) err = %v, want ErrInvalidQuantile", p, err)
		}
	}
}

func TestOnlineECDFQuantileWithinBinResolution(t *testing.T) {
	t.Parallel()
	xs := lognormalSample(30000, 3)
	// Span chosen like the production sketches: generous decades around
	// the data with 2048 log bins → ≲0.7% relative bin width.
	e, err := NewOnlineECDF(0.01, 10000, 2048, true)
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

func TestOnlineECDFEvalAgainstExact(t *testing.T) {
	t.Parallel()
	xs := lognormalSample(20000, 5)
	exact, err := NewECDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewOnlineECDF(0.01, 10000, 2048, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if err := e.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range []float64{0.5, 1, 2, 4, 8, 16, 40, 120} {
		got, want := e.Eval(x), exact.Eval(x)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Eval(%v) = %v, exact %v", x, got, want)
		}
	}
	if got := e.Eval(0); got != 0 {
		t.Errorf("Eval below support = %v, want 0", got)
	}
	if got := e.Eval(1e12); got != 1 {
		t.Errorf("Eval above support = %v, want 1", got)
	}
}

// TestOnlineECDFMergeEquivalence pins the shard-fold contract for the
// binned ECDF: merging per-chunk sketches equals the single-pass sketch
// exactly (bin counts are integers — no tolerance needed).
func TestOnlineECDFMergeEquivalence(t *testing.T) {
	t.Parallel()
	xs := lognormalSample(9001, 13)
	mk := func() *OnlineECDF {
		e, err := NewOnlineECDF(0.01, 10000, 512, true)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	whole := mk()
	for _, x := range xs {
		if err := whole.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	merged := mk()
	bounds := []int{0, 0, 1234, 5000, 9001} // includes an empty chunk
	for i := 0; i+1 < len(bounds); i++ {
		part := mk()
		for _, x := range xs[bounds[i]:bounds[i+1]] {
			if err := part.Add(x); err != nil {
				t.Fatal(err)
			}
		}
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	if merged.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", merged.N(), whole.N())
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.9, 1} {
		a, _ := whole.Quantile(p)
		b, _ := merged.Quantile(p)
		if a != b {
			t.Errorf("Quantile(%v): whole %v != merged %v", p, a, b)
		}
	}
	// Mismatched configurations refuse to merge.
	other, err := NewOnlineECDF(0.01, 10000, 256, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.Merge(other); err != ErrMismatched {
		t.Errorf("Merge of mismatched config err = %v, want ErrMismatched", err)
	}
}

func TestOnlineECDFEdge(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		lo, hi float64
		bins   int
		log    bool
	}{
		{1, 1, 8, false},  // degenerate span
		{5, 1, 8, false},  // inverted span
		{1, 10, 0, false}, // no bins
		{0, 10, 8, true},  // log mode needs positive lo
		{-1, 10, 8, true}, // log mode needs positive lo
		{math.NaN(), 1, 8, false},
	} {
		if _, err := NewOnlineECDF(c.lo, c.hi, c.bins, c.log); err != ErrInvalidBins {
			t.Errorf("NewOnlineECDF(%v,%v,%d,log=%v) err = %v, want ErrInvalidBins",
				c.lo, c.hi, c.bins, c.log, err)
		}
	}
	e, err := NewOnlineECDF(0, 1, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Quantile(0.5); err != ErrEmpty {
		t.Errorf("empty Quantile err = %v, want ErrEmpty", err)
	}
	if _, err := e.Curve(5); err != ErrEmpty {
		t.Errorf("empty Curve err = %v, want ErrEmpty", err)
	}
	if err := e.Add(math.NaN()); err != ErrNaN {
		t.Errorf("Add(NaN) err = %v, want ErrNaN", err)
	}
	if e.N() != 0 {
		t.Errorf("rejected NaN still counted: N = %d", e.N())
	}
	// Out-of-span values clamp into terminal bins but keep exact extrema.
	for _, x := range []float64{-3, 0.5, 9} {
		if err := e.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if lo, _ := e.Min(); lo != -3 {
		t.Errorf("Min = %v, want -3", lo)
	}
	if hi, _ := e.Max(); hi != 9 {
		t.Errorf("Max = %v, want 9", hi)
	}
	if got, _ := e.Quantile(0); got != -3 {
		t.Errorf("Quantile(0) = %v, want -3", got)
	}
	if got, _ := e.Quantile(1); got != 9 {
		t.Errorf("Quantile(1) = %v, want 9", got)
	}
	pts, err := e.Curve(3)
	if err != nil || len(pts) != 3 || pts[0].X != -3 || pts[2].X != 9 {
		t.Errorf("Curve(3) = %v, %v", pts, err)
	}
}
