package stats

import "math/rand/v2"

// newTestRand returns a deterministic generator for a test-provided seed.
func newTestRand(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0xda7a5e7))
}

// MinMax returns the smallest and largest values in the sample: the
// reference the streaming and indexed estimators' extremes are checked
// against.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}
