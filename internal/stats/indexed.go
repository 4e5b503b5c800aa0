package stats

import "math"

// Indexed aggregation entry points: the no-copy twins of Sum/Mean/Variance/
// StdDev/MinMax/MeanCI, consuming a column through an index vector (the
// dataset package's columnar views select rows as []int32). Each variant
// visits the selected elements in index order with exactly the arithmetic
// of its slice counterpart, so an aggregate over a view is bit-identical
// to first gathering the rows into a fresh slice and aggregating that —
// the property the golden artifacts pin.

// SumIdx returns the sum of xs at idx (0 for an empty selection).
func SumIdx(xs []float64, idx []int32) float64 {
	s := 0.0
	for _, i := range idx {
		s += xs[i]
	}
	return s
}

// MeanIdx returns the arithmetic mean of xs at idx.
func MeanIdx(xs []float64, idx []int32) (float64, error) {
	if len(idx) == 0 {
		return 0, ErrEmpty
	}
	return SumIdx(xs, idx) / float64(len(idx)), nil
}

// VarianceIdx returns the unbiased (n−1) sample variance of xs at idx.
func VarianceIdx(xs []float64, idx []int32) (float64, error) {
	if len(idx) < 2 {
		if len(idx) == 0 {
			return 0, ErrEmpty
		}
		return 0, ErrShortSample
	}
	m, _ := MeanIdx(xs, idx)
	ss := 0.0
	for _, i := range idx {
		d := xs[i] - m
		ss += d * d
	}
	return ss / float64(len(idx)-1), nil
}

// StdDevIdx returns the unbiased sample standard deviation of xs at idx.
func StdDevIdx(xs []float64, idx []int32) (float64, error) {
	v, err := VarianceIdx(xs, idx)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// MeanCIIdx returns the 95% Student-t confidence interval for the
// population mean of xs at idx.
func MeanCIIdx(xs []float64, idx []int32) (Interval, error) {
	if len(idx) == 0 {
		return Interval{}, ErrEmpty
	}
	m, _ := MeanIdx(xs, idx)
	if len(idx) == 1 {
		return Interval{Point: m, Lo: m, Hi: m, Level: ciLevel}, nil
	}
	sd, err := StdDevIdx(xs, idx)
	if err != nil {
		return Interval{}, err
	}
	n := float64(len(idx))
	tcrit := StudentTQuantile(0.5+ciLevel/2, n-1)
	margin := tcrit * sd / math.Sqrt(n)
	return Interval{Point: m, Lo: m - margin, Hi: m + margin, Level: ciLevel}, nil
}
