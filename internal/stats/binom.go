package stats

import (
	"fmt"
	"math"
)

// Tail names the alternative a test evaluated. The paper's design is
// one-tailed throughout, so TailGreater is the only one.
type Tail int

// TailGreater is H1: success probability > P0 ("H holds more often than
// chance").
const TailGreater Tail = 0

// nullP is the null success probability of every binomial test in the
// paper: under H0 the hypothesis holds in a matched pair by chance.
const nullP = 0.5

// BinomialResult reports a binomial hypothesis test on k successes out of n
// trials against the null success probability P0.
type BinomialResult struct {
	N         int     // number of trials (matched pairs)
	Successes int     // trials where the hypothesis held
	P0        float64 // null success probability (always nullP)
	Fraction  float64 // observed success fraction
	P         float64 // one-tailed p-value P(X ≥ Successes)
	Tail      Tail    // always TailGreater
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

// BinomialTest performs the paper's exact one-tailed binomial test of k
// successes in n trials against nullP. The upper tail P(X ≥ k) is computed
// through the regularized incomplete beta identity P(X ≥ k) =
// I_p0(k, n−k+1), which stays accurate for the n ≈ 10⁴ matched-pair counts
// in this study where naive summation of binomial pmf terms would
// underflow.
func BinomialTest(k, n int) (BinomialResult, error) {
	if n <= 0 {
		return BinomialResult{}, ErrEmpty
	}
	if k < 0 || k > n {
		return BinomialResult{}, fmt.Errorf("stats: %d successes out of %d trials", k, n)
	}
	return BinomialResult{
		N:         n,
		Successes: k,
		P0:        nullP,
		Fraction:  float64(k) / float64(n),
		P:         binomUpperTail(k, n, nullP),
		Tail:      TailGreater,
	}, nil
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
