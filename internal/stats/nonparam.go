package stats

import (
	"math"
	"sort"
)

// Nonparametric tests used as robustness cross-checks on the paper's
// binomial designs: the Kolmogorov–Smirnov two-sample test quantifies the
// distributional separations the CDF figures show (India vs. the rest),
// and the Wilcoxon signed-rank test strengthens the within-subject upgrade
// analysis by using effect magnitudes where the paper's sign-style binomial
// test uses directions only.

// KSResult reports a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	D  float64 // maximum CDF separation
	P  float64 // asymptotic p-value (two-sided)
	N1 int
	N2 int
}

// KSTest performs the two-sample Kolmogorov–Smirnov test. The asymptotic
// Kolmogorov distribution is accurate for n1, n2 ≳ 20.
func KSTest(a, b []float64) (KSResult, error) {
	if len(a) == 0 || len(b) == 0 {
		return KSResult{}, ErrEmpty
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	var d float64
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		if sa[i] <= sb[j] {
			i++
		} else {
			j++
		}
		fa := float64(i) / float64(len(sa))
		fb := float64(j) / float64(len(sb))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	n1, n2 := float64(len(sa)), float64(len(sb))
	ne := n1 * n2 / (n1 + n2)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return KSResult{D: d, P: ksProb(lambda), N1: len(sa), N2: len(sb)}, nil
}

// ksProb is the Kolmogorov survival function Q(λ) = 2 Σ (−1)^{k−1} e^{−2k²λ²}.
func ksProb(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k)*float64(k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// WilcoxonResult reports a Wilcoxon signed-rank test over paired samples.
type WilcoxonResult struct {
	WPlus float64 // rank sum of positive differences
	Z     float64
	P     float64
	N     int // non-zero differences used
}

// WilcoxonSignedRank tests whether paired differences (after − before) tend
// to be positive (one-tailed, TailGreater), with the normal approximation
// (valid for n ≳ 20). Zero differences are dropped, ties share average
// ranks.
func WilcoxonSignedRank(before, after []float64) (WilcoxonResult, error) {
	if len(before) != len(after) {
		return WilcoxonResult{}, ErrMismatched
	}
	var diffs []float64
	for i := range before {
		if d := after[i] - before[i]; d != 0 {
			diffs = append(diffs, d)
		}
	}
	if len(diffs) == 0 {
		return WilcoxonResult{}, ErrEmpty
	}
	abs := make([]float64, len(diffs))
	for i, d := range diffs {
		abs[i] = math.Abs(d)
	}
	r := ranks(abs)
	var wPlus float64
	for i, d := range diffs {
		if d > 0 {
			wPlus += r[i]
		}
	}
	n := float64(len(diffs))
	mu := n * (n + 1) / 4
	sigma := math.Sqrt(n * (n + 1) * (2*n + 1) / 24)
	z := (wPlus - mu) / sigma
	return WilcoxonResult{WPlus: wPlus, Z: z, P: 1 - NormalCDF(z), N: len(diffs)}, nil
}
