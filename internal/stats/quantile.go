package stats

import (
	"math"
	"sort"
)

// prepareSorted returns a sorted, NaN-free view of the sample in one pass:
// it scans once for NaN (ErrNaN) and sortedness, returning the input slice
// itself when it is already ordered — the fast path the artifact inner
// loops hit after an ECDF or a prior Summarize has sorted the values — and
// a sorted copy otherwise. The input is never mutated.
func prepareSorted(xs []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := true
	prev := xs[0]
	if math.IsNaN(prev) {
		return nil, ErrNaN
	}
	for _, x := range xs[1:] {
		if math.IsNaN(x) {
			return nil, ErrNaN
		}
		if x < prev {
			sorted = false
		}
		prev = x
	}
	if sorted {
		return xs, nil
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return cp, nil
}

// Quantile returns the p-quantile (p in [0, 1]) of the sample using linear
// interpolation between order statistics (Hyndman–Fan type 7, the default of
// R and NumPy). The input need not be sorted (already-sorted input skips the
// internal copy). A sample containing NaN returns ErrNaN.
func Quantile(xs []float64, p float64) (float64, error) {
	sorted, err := prepareSorted(xs)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(p) {
		return math.NaN(), nil
	}
	return quantileSorted(sorted, p), nil
}

// quantileSorted computes the type-7 quantile of an already sorted sample.
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case p <= 0:
		return sorted[0]
	case p >= 1:
		return sorted[n-1]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	if frac == 0 {
		// Exact order statistic; also keeps 0·Inf out of the
		// interpolation when a neighbor is infinite.
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Median returns the sample median.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// Summary is a five-number-plus summary of a sample, convenient for the
// dataset characterization tables.
type Summary struct {
	N                  int
	Mean, StdDev       float64
	Min, Median, Max   float64
	P05, P25, P75, P95 float64
}

// Summarize computes a Summary in one pass over a sorted view (already-
// sorted input skips the copy). A sample containing NaN returns ErrNaN.
func Summarize(xs []float64) (Summary, error) {
	sorted, err := prepareSorted(xs)
	if err != nil {
		return Summary{}, err
	}
	m, _ := Mean(sorted)
	sd := 0.0
	if len(sorted) > 1 {
		sd, _ = StdDev(sorted)
	}
	return Summary{
		N:      len(sorted),
		Mean:   m,
		StdDev: sd,
		Min:    sorted[0],
		Median: quantileSorted(sorted, 0.5),
		Max:    sorted[len(sorted)-1],
		P05:    quantileSorted(sorted, 0.05),
		P25:    quantileSorted(sorted, 0.25),
		P75:    quantileSorted(sorted, 0.75),
		P95:    quantileSorted(sorted, 0.95),
	}, nil
}
