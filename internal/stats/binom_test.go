package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinomialTestExactSmall(t *testing.T) {
	// Fair coin, 9 heads out of 10: P(X>=9) = (10+1)/1024 = 0.0107421875.
	r, err := BinomialTest(9, 10)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "upper tail", r.P, 11.0/1024, 1e-12)
	// The result records the paper's fixed null and alternative.
	if r.P0 != 0.5 || r.Tail != TailGreater {
		t.Errorf("P0, Tail = %v, %v; want 0.5, TailGreater", r.P0, r.Tail)
	}
}

func TestBinomialTestDegenerate(t *testing.T) {
	r, err := BinomialTest(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "k=0 upper", r.P, 1, 1e-12)
	r, _ = BinomialTest(10, 10)
	almost(t, "k=n upper", r.P, math.Pow(0.5, 10), 1e-12)
	// P(X >= 1) = 1 − P(X = 0).
	r, _ = BinomialTest(1, 10)
	almost(t, "k=1 upper", r.P, 1-math.Pow(0.5, 10), 1e-12)
}

func TestBinomialTestErrors(t *testing.T) {
	if _, err := BinomialTest(1, 0); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := BinomialTest(-1, 10); err == nil {
		t.Error("negative k should error")
	}
	if _, err := BinomialTest(11, 10); err == nil {
		t.Error("k>n should error")
	}
}

func TestBinomialMatchesPaperScale(t *testing.T) {
	// The paper's Table 1: 66.8% of a large sample with p ≈ 1.94e-25.
	// Back out the implied n: for fraction 0.668, p≈2e-25 needs n ≈ 900.
	// We verify our test reproduces the same order of magnitude.
	n := 900
	k := int(0.668 * float64(n))
	r, err := BinomialTest(k, n)
	if err != nil {
		t.Fatal(err)
	}
	if r.P > 1e-20 || r.P < 1e-30 {
		t.Errorf("p-value %v not in the expected 1e-25 regime", r.P)
	}
}

func TestBinomialAgainstNormalApproxProperty(t *testing.T) {
	// For large n the exact tail must agree with the continuity-corrected
	// normal approximation.
	f := func(seed int64) bool {
		rng := newTestRand(seed)
		n := 500 + rng.IntN(5000)
		k := int(float64(n) * (0.45 + 0.1*rng.Float64()))
		r, err := BinomialTest(k, n)
		if err != nil {
			return false
		}
		mu := 0.5 * float64(n)
		sd := math.Sqrt(float64(n) * 0.25)
		approx := 1 - NormalCDF((float64(k)-0.5-mu)/sd)
		return math.Abs(r.P-approx) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBinomialTailComplementProperty(t *testing.T) {
	// P(X >= k) + P(X <= k-1) = 1 exactly. At p0 = 0.5 the distribution is
	// symmetric, so P(X <= k-1) = P(X >= n-k+1), another upper tail.
	f := func(seed int64) bool {
		rng := newTestRand(seed)
		n := 1 + rng.IntN(2000)
		k := 1 + rng.IntN(n)
		up, err1 := BinomialTest(k, n)
		lo, err2 := BinomialTest(n-k+1, n)
		return err1 == nil && err2 == nil && math.Abs(up.P+lo.P-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSignificanceRule(t *testing.T) {
	// Statistically significant but practically unimportant: huge n, 51%.
	r, err := BinomialTest(51000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Assess()
	if !s.Statistical {
		t.Error("51% of 100k should be statistically significant")
	}
	if s.Practical || s.Significant() {
		t.Error("51% must fail the paper's 52% practical-importance rule")
	}
	// Both criteria met.
	r, _ = BinomialTest(60, 100)
	if !r.Assess().Significant() {
		t.Error("60% of 100 should be significant on both criteria")
	}
	// Practically large but statistically weak (tiny n).
	r, _ = BinomialTest(3, 5)
	s = r.Assess()
	if s.Statistical {
		t.Error("3/5 should not be statistically significant")
	}
	if !s.Practical {
		t.Error("60% should pass the practical threshold")
	}
}

func TestBinomialResultString(t *testing.T) {
	r, _ := BinomialTest(703, 1000)
	s := r.String()
	if !strings.Contains(s, "703/1000") || !strings.Contains(s, "70.3%") {
		t.Errorf("String() = %q", s)
	}
	if FormatP(0.0166) != "0.0166" {
		t.Errorf("FormatP(0.0166) = %q", FormatP(0.0166))
	}
	if !strings.Contains(FormatP(1.94e-25), "e-25") {
		t.Errorf("FormatP(1.94e-25) = %q", FormatP(1.94e-25))
	}
	if FormatP(math.NaN()) != "NaN" {
		t.Error("FormatP(NaN)")
	}
}
