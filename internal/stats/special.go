// Package stats implements the descriptive and inferential statistics used
// throughout the study: summaries, quantiles, empirical CDFs, correlation,
// ordinary least squares, confidence intervals, one-tailed binomial tests and
// the paper's capacity-class binning.
//
// Everything is implemented from the standard library up (math.Lgamma,
// math.Erfc and a regularized-incomplete-beta continued fraction carry all of
// the distribution theory), because the reproduction must run offline with no
// third-party numerical dependencies.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by estimators that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// ErrShortSample is returned by estimators that need more observations than
// they were given (e.g. variance of a single point).
var ErrShortSample = errors.New("stats: sample too small")

// ErrNaN is returned by the order-statistic family (Quantile, Median,
// Summarize, NewECDF) when the sample contains a NaN: sorting places
// NaNs in unspecified positions, so quantiles of NaN-contaminated data
// would be nondeterministic garbage rather than a well-defined statistic.
var ErrNaN = errors.New("stats: sample contains NaN")

// ErrInvalidBins is returned when a binned sketch is configured with an
// empty bin count or a degenerate (or, in log mode, non-positive) span.
var ErrInvalidBins = errors.New("stats: invalid bin configuration")

const ibetaEps = 1e-14

// LogBeta returns the natural log of the Beta function B(a, b).
func LogBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b) for
// a, b > 0 and x in [0, 1], evaluated with the Lentz continued fraction
// (Numerical Recipes 6.4). It underpins the exact binomial tail and the
// Student-t CDF.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return math.NaN()
	case a <= 0 || b <= 0:
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// Front factor x^a (1-x)^b / (a B(a,b)).
	lnFront := a*math.Log(x) + b*math.Log1p(-x) - LogBeta(a, b)
	front := math.Exp(lnFront)
	// Use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) to keep the continued
	// fraction in its rapidly converging region.
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - math.Exp(b*math.Log1p(-x)+a*math.Log(x)-LogBeta(b, a))*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		m2 := 2 * fm
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < ibetaEps {
			break
		}
	}
	return h
}

// NormalCDF returns the standard normal cumulative distribution Φ(z).
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns Φ⁻¹(p) for p in (0, 1), via the Acklam rational
// approximation refined with one Halley step (absolute error ≪ 1e-12).
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		}
		return math.NaN()
	}
	// Acklam's coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// StudentTCDF returns the CDF of Student's t distribution with df degrees of
// freedom at t.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// StudentTQuantile returns the p-quantile of Student's t distribution with
// df degrees of freedom, by monotone bisection on the CDF (plenty fast for
// confidence-interval construction).
func StudentTQuantile(p, df float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 || df <= 0 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		}
		return math.NaN()
	}
	if p == 0.5 {
		return 0
	}
	// Bracket using the normal quantile scaled for heavy tails.
	z := NormalQuantile(p)
	lo, hi := z-1, z+1
	for StudentTCDF(lo, df) > p {
		lo = lo*2 - 1
	}
	for StudentTCDF(hi, df) < p {
		hi = hi*2 + 1
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if hi-lo < 1e-12*(1+math.Abs(mid)) {
			return mid
		}
		if StudentTCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
