package stats

import "math"

// Sign classifies a value as -1, 0 or +1. NaN maps to 0 so that callers
// comparing qualitative shapes treat an undefined effect as "no sign"
// rather than propagating NaN through boolean logic.
func Sign(x float64) int {
	switch {
	case math.IsNaN(x), x == 0:
		return 0
	case x > 0:
		return 1
	default:
		return -1
	}
}

// NonDecreasing reports whether the sequence never drops by more than tol
// between consecutive elements: xs[i+1] >= xs[i] - tol for every i. tol is
// an absolute slack (0 demands exact monotonicity); a NaN anywhere in the
// sequence fails. The empty sequence is vacuously monotone.
func NonDecreasing(xs []float64, tol float64) bool {
	for i := 1; i < len(xs); i++ {
		if math.IsNaN(xs[i]) || math.IsNaN(xs[i-1]) {
			return false
		}
		if xs[i] < xs[i-1]-tol {
			return false
		}
	}
	return len(xs) == 0 || !math.IsNaN(xs[0])
}

// NonIncreasing is the mirror of NonDecreasing: xs[i+1] <= xs[i] + tol.
func NonIncreasing(xs []float64, tol float64) bool {
	neg := make([]float64, len(xs))
	for i, x := range xs {
		neg[i] = -x
	}
	return NonDecreasing(neg, tol)
}

// PeakFirst reports whether the first element dominates the rest of the
// sequence within tol: xs[i] <= xs[0] + tol for every i > 0. This is the
// "strong at the bottom, decaying after" shape of the paper's matched
// ladders (Table 2), which is not monotone — later rungs may wobble — but
// never exceeds the first rung. NaN anywhere fails; empty is false.
func PeakFirst(xs []float64, tol float64) bool {
	if len(xs) == 0 || math.IsNaN(xs[0]) {
		return false
	}
	for _, x := range xs[1:] {
		if math.IsNaN(x) || x > xs[0]+tol {
			return false
		}
	}
	return true
}
