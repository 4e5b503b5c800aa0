package stats

import (
	"fmt"
	"math"
)

// Tail selects which alternative a binomial test evaluates.
type Tail int

const (
	// TailGreater tests H1: success probability > p0 (the paper's
	// one-tailed design: "H holds more often than chance").
	TailGreater Tail = iota
	// TailLess tests H1: success probability < p0.
	TailLess
	// TailTwoSided tests H1: success probability ≠ p0 (doubled smaller tail).
	TailTwoSided
)

// BinomialResult reports a binomial hypothesis test on k successes out of n
// trials against a null success probability P0.
type BinomialResult struct {
	N         int     // number of trials (matched pairs)
	Successes int     // trials where the hypothesis held
	P0        float64 // null success probability (0.5 throughout the paper)
	Fraction  float64 // observed success fraction
	P         float64 // p-value for the selected tail
	Tail      Tail
}

// String renders the result in the paper's reporting style.
func (r BinomialResult) String() string {
	return fmt.Sprintf("%d/%d (%.1f%%), p=%s", r.Successes, r.N, 100*r.Fraction, FormatP(r.P))
}

// FormatP renders a p-value the way the paper's tables do: scientific
// notation below 1e-3, fixed decimals otherwise.
func FormatP(p float64) string {
	switch {
	case math.IsNaN(p):
		return "NaN"
	case p < 1e-3:
		return fmt.Sprintf("%.2e", p)
	default:
		return fmt.Sprintf("%.3g", p)
	}
}

// BinomialTest performs an exact binomial test of k successes in n trials
// against null probability p0. The upper tail P(X ≥ k) is computed through
// the regularized incomplete beta identity P(X ≥ k) = I_p0(k, n−k+1), which
// stays accurate for the n ≈ 10⁴ matched-pair counts in this study where
// naive summation of binomial pmf terms would underflow.
func BinomialTest(k, n int, p0 float64, tail Tail) (BinomialResult, error) {
	if n <= 0 {
		return BinomialResult{}, ErrEmpty
	}
	if k < 0 || k > n {
		return BinomialResult{}, fmt.Errorf("stats: %d successes out of %d trials", k, n)
	}
	if p0 <= 0 || p0 >= 1 {
		return BinomialResult{}, fmt.Errorf("stats: null probability %v outside (0,1)", p0)
	}
	res := BinomialResult{
		N:         n,
		Successes: k,
		P0:        p0,
		Fraction:  float64(k) / float64(n),
		Tail:      tail,
	}
	upper := binomUpperTail(k, n, p0)       // P(X >= k)
	lower := 1 - binomUpperTail(k+1, n, p0) // P(X <= k)
	switch tail {
	case TailGreater:
		res.P = upper
	case TailLess:
		res.P = lower
	case TailTwoSided:
		res.P = math.Min(1, 2*math.Min(upper, lower))
	default:
		return BinomialResult{}, fmt.Errorf("stats: unknown tail %d", tail)
	}
	return res, nil
}

// binomUpperTail returns P(X ≥ k) for X ~ Binomial(n, p).
func binomUpperTail(k, n int, p float64) float64 {
	switch {
	case k <= 0:
		return 1
	case k > n:
		return 0
	}
	return RegIncBeta(float64(k), float64(n-k+1), p)
}

// Significance encodes the paper's twofold decision rule (Sec. 2.3): a
// result must be statistically significant (p < 0.05) AND practically
// important (the hypothesis holds in at least 52% of pairs, guarding against
// the large-sample problem where trivial deviations reach significance).
type Significance struct {
	Statistical bool // p < alpha
	Practical   bool // fraction >= practical threshold
}

// Significant reports whether both criteria hold.
func (s Significance) Significant() bool { return s.Statistical && s.Practical }

// Alpha and PracticalMin are the thresholds used throughout the paper.
const (
	Alpha        = 0.05
	PracticalMin = 0.52
)

// Assess applies the paper's decision rule to a binomial result.
func (r BinomialResult) Assess() Significance {
	return Significance{
		Statistical: r.P < Alpha,
		Practical:   r.Fraction >= PracticalMin,
	}
}
