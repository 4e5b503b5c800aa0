package stats

import (
	"math"
	"testing"
)

var nan = math.NaN()

func TestSign(t *testing.T) {
	t.Parallel()
	cases := []struct {
		x    float64
		want int
	}{
		{3.5, 1}, {1e-300, 1}, {math.Inf(1), 1},
		{-2, -1}, {-1e-300, -1}, {math.Inf(-1), -1},
		{0, 0}, {math.Copysign(0, -1), 0}, {nan, 0},
	}
	for _, c := range cases {
		if got := Sign(c.x); got != c.want {
			t.Errorf("Sign(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestMonotone(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		xs     []float64
		tol    float64
		nonDec bool
		nonInc bool
	}{
		{"empty vacuous", nil, 0, true, true},
		{"single vacuous", []float64{5}, 0, true, true},
		{"strictly rising", []float64{1, 2, 3}, 0, true, false},
		{"strictly falling", []float64{3, 2, 1}, 0, false, true},
		{"flat is both", []float64{2, 2, 2}, 0, true, true},
		{"dip within tol", []float64{1, 2, 1.95, 3}, 0.1, true, false},
		{"dip beyond tol", []float64{1, 2, 1.5, 3}, 0.1, false, false},
		{"NaN fails both", []float64{1, nan, 3}, 10, false, false},
		{"leading NaN fails", []float64{nan}, 0, false, false},
	}
	for _, c := range cases {
		if got := NonDecreasing(c.xs, c.tol); got != c.nonDec {
			t.Errorf("%s: NonDecreasing(%v, %g) = %v, want %v", c.name, c.xs, c.tol, got, c.nonDec)
		}
		if got := NonIncreasing(c.xs, c.tol); got != c.nonInc {
			t.Errorf("%s: NonIncreasing(%v, %g) = %v, want %v", c.name, c.xs, c.tol, got, c.nonInc)
		}
	}
}

func TestPeakFirst(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		xs   []float64
		tol  float64
		want bool
	}{
		{"empty is false", nil, 0, false},
		{"single peaks trivially", []float64{4}, 0, true},
		{"decaying ladder", []float64{0.85, 0.8, 0.7, 0.72}, 0, true},
		{"wobble within tol", []float64{0.8, 0.82, 0.7}, 0.05, true},
		{"later rung exceeds first", []float64{0.7, 0.85}, 0.05, false},
		{"NaN first fails", []float64{nan, 0.5}, 0, false},
		{"NaN later fails", []float64{0.8, nan}, 10, false},
	}
	for _, c := range cases {
		if got := PeakFirst(c.xs, c.tol); got != c.want {
			t.Errorf("%s: PeakFirst(%v, %g) = %v, want %v", c.name, c.xs, c.tol, got, c.want)
		}
	}
}

// TestMonotoneMirrorProperty: NonIncreasing must be exactly NonDecreasing
// of the negated sequence, whatever the input.
func TestMonotoneMirrorProperty(t *testing.T) {
	t.Parallel()
	seqs := [][]float64{
		{1, 2, 3}, {3, 1, 2}, {0, 0, 0}, {-1, -2}, {1, nan, 2}, {}, {5},
	}
	for _, xs := range seqs {
		neg := make([]float64, len(xs))
		for i, x := range xs {
			neg[i] = -x
		}
		for _, tol := range []float64{0, 0.5} {
			if NonIncreasing(xs, tol) != NonDecreasing(neg, tol) {
				t.Errorf("mirror property broken for %v tol %g", xs, tol)
			}
		}
	}
}
