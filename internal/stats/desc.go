package stats

import "math"

// Sum returns the sum of the sample (0 for an empty sample).
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of the sample.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// Variance returns the unbiased (n−1) sample variance.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		if len(xs) == 0 {
			return 0, ErrEmpty
		}
		return 0, ErrShortSample
	}
	m, _ := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Point float64 // the estimate (e.g. sample mean)
	Lo    float64 // lower confidence bound
	Hi    float64 // upper confidence bound
	Level float64 // confidence level (always ciLevel)
}

// ciLevel is the confidence level of every interval the paper reports.
const ciLevel = 0.95

// MeanCI returns the 95% Student-t confidence interval for the population
// mean. A single observation yields a degenerate interval at the point.
func MeanCI(xs []float64) (Interval, error) {
	if len(xs) == 0 {
		return Interval{}, ErrEmpty
	}
	m, _ := Mean(xs)
	if len(xs) == 1 {
		return Interval{Point: m, Lo: m, Hi: m, Level: ciLevel}, nil
	}
	sd, err := StdDev(xs)
	if err != nil {
		return Interval{}, err
	}
	n := float64(len(xs))
	tcrit := StudentTQuantile(0.5+ciLevel/2, n-1)
	margin := tcrit * sd / math.Sqrt(n)
	return Interval{Point: m, Lo: m - margin, Hi: m + margin, Level: ciLevel}, nil
}
