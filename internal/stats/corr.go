package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrMismatched is returned when paired samples differ in length.
var ErrMismatched = errors.New("stats: paired samples of different length")

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples. It errs on fewer than two pairs or zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrMismatched
	}
	if len(xs) < 2 {
		if len(xs) == 0 {
			return 0, ErrEmpty
		}
		return 0, ErrShortSample
	}
	n := float64(len(xs))
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, ErrShortSample
	}
	_ = n
	return sxy / math.Sqrt(sxx*syy), nil
}

// LogPearson returns the Pearson correlation of the element-wise logarithms
// of two strictly positive samples. The paper's capacity/usage correlations
// (Fig. 2, Fig. 3) are computed on log-log axes, where this is the natural
// statistic. Non-positive pairs are skipped.
func LogPearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrMismatched
	}
	lx := make([]float64, 0, len(xs))
	ly := make([]float64, 0, len(ys))
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	return Pearson(lx, ly)
}

// ranks assigns average ranks (1-based) to the sample, averaging ties.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}
