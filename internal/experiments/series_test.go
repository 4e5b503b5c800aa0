package experiments

import (
	"math"
	"testing"
)

func syntheticSeries(f func(x float64) float64) Series {
	s := Series{Label: "synthetic"}
	for x := 0.25; x <= 64; x *= 2 {
		s.Points = append(s.Points, SeriesPoint{X: x, Y: f(x), N: 100})
	}
	return s
}

func TestDiminishingReturnsHelper(t *testing.T) {
	t.Parallel()
	// A saturating curve has a steeper low half than high half.
	sat := syntheticSeries(func(x float64) float64 { return x / (1 + x/8) })
	lo, hi, ok := diminishingReturns(sat)
	if !ok {
		t.Fatal("slopes unavailable")
	}
	if lo <= hi {
		t.Errorf("saturating curve: low %.3f ≤ high %.3f", lo, hi)
	}
	// A pure power law has equal halves.
	pow := syntheticSeries(func(x float64) float64 { return math.Pow(x, 0.7) })
	lo, hi, ok = diminishingReturns(pow)
	if !ok {
		t.Fatal("slopes unavailable")
	}
	if math.Abs(lo-hi) > 0.02 {
		t.Errorf("power law halves should match: %.3f vs %.3f", lo, hi)
	}
	// Degenerate inputs.
	if _, _, ok := diminishingReturns(Series{}); ok {
		t.Error("empty series should not produce slopes")
	}
}

func TestTailFlatteningHelper(t *testing.T) {
	t.Parallel()
	sat := syntheticSeries(func(x float64) float64 { return x / (1 + x/4) })
	tail, mid, ok := tailFlattening(sat)
	if !ok {
		t.Fatal("series too short")
	}
	if tail >= mid {
		t.Errorf("saturating curve must flatten at the tail: %.3f vs %.3f", tail, mid)
	}
	// Exponential blow-up (super-linear in log space) must NOT flatten.
	exp := syntheticSeries(func(x float64) float64 { return math.Exp(x / 16) })
	tail, mid, ok = tailFlattening(exp)
	if !ok {
		t.Fatal("series too short")
	}
	if tail <= mid {
		t.Errorf("accelerating curve misclassified as flattening: %.3f vs %.3f", tail, mid)
	}
	// Low-N points are excluded, possibly leaving too few.
	thin := syntheticSeries(func(x float64) float64 { return x })
	for i := range thin.Points {
		thin.Points[i].N = 5
	}
	if _, _, ok := tailFlattening(thin); ok {
		t.Error("all-thin series should be rejected")
	}
}

// diminishingReturns reports, for a binned usage series, the log-log slope
// of the low-capacity half versus the high-capacity half. The paper's "law
// of diminishing returns" is lowSlope > highSlope.
func diminishingReturns(s Series) (lowSlope, highSlope float64, ok bool) {
	if len(s.Points) < 4 {
		return 0, 0, false
	}
	mid := len(s.Points) / 2
	slope := func(pts []SeriesPoint) (float64, bool) {
		// Least-squares on (log x, log y).
		var xs, ys []float64
		for _, p := range pts {
			if p.X > 0 && p.Y > 0 {
				xs = append(xs, math.Log(p.X))
				ys = append(ys, math.Log(p.Y))
			}
		}
		if len(xs) < 2 {
			return 0, false
		}
		var mx, my float64
		for i := range xs {
			mx += xs[i]
			my += ys[i]
		}
		mx /= float64(len(xs))
		my /= float64(len(ys))
		var sxx, sxy float64
		for i := range xs {
			sxx += (xs[i] - mx) * (xs[i] - mx)
			sxy += (xs[i] - mx) * (ys[i] - my)
		}
		if sxx == 0 {
			return 0, false
		}
		return sxy / sxx, true
	}
	lo, ok1 := slope(s.Points[:mid+1])
	hi, ok2 := slope(s.Points[mid:])
	return lo, hi, ok1 && ok2
}
