// Package randx provides deterministic, splittable random number streams and
// the distributions the synthetic-world generator draws from.
//
// Reproducibility is a hard requirement: the entire study (three datasets,
// every table and figure) must regenerate bit-identically from a single world
// seed, and sub-systems must be able to evolve without perturbing each
// other's draws. Stream derivation therefore hashes a parent seed with a
// string label (FNV-1a), so "the latency stream for user 1234 in country BW"
// is a stable function of the world seed alone, independent of the order in
// which other streams were consumed.
package randx

import (
	"errors"
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// Source is a deterministic random stream. It wraps a PCG generator seeded
// from a (seed, label) derivation chain.
type Source struct {
	rng *rand.Rand
	lo  uint64
	hi  uint64
}

// New returns a root Source for the given seed.
func New(seed uint64) *Source {
	return fromState(seed, 0x9e3779b97f4a7c15) // golden-ratio constant mixes the hi word
}

func fromState(lo, hi uint64) *Source {
	return &Source{rng: rand.New(rand.NewPCG(lo, hi)), lo: lo, hi: hi}
}

// Split derives an independent child stream identified by label. Splitting
// does not consume randomness from the parent: the child state is a pure
// function of the parent's seed state and the label.
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	var buf [16]byte
	putUint64(buf[0:8], s.lo)
	putUint64(buf[8:16], s.hi)
	h.Write(buf[:])
	h.Write([]byte(label))
	lo := h.Sum64()
	h.Write([]byte{0xff}) // decorrelate the second word
	hi := h.Sum64()
	return fromState(lo, hi)
}

// SplitN derives an independent child stream identified by label and an
// index, for per-entity streams ("user", i).
func (s *Source) SplitN(label string, n int) *Source {
	h := fnv.New64a()
	var buf [24]byte
	putUint64(buf[0:8], s.lo)
	putUint64(buf[8:16], s.hi)
	putUint64(buf[16:24], uint64(n))
	h.Write(buf[:])
	h.Write([]byte(label))
	lo := h.Sum64()
	h.Write([]byte{0xff})
	hi := h.Sum64()
	return fromState(lo, hi)
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// IntN returns a uniform draw in [0, n). It panics if n <= 0.
func (s *Source) IntN(n int) int { return s.rng.IntN(n) }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle randomizes the order of n elements using the provided swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// Normal returns a draw from the normal distribution with the given mean and
// standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rng.NormFloat64()
}

// TruncNormal returns a normal draw rejected into [lo, hi]. If the interval
// is far in the tail it falls back to clamping after a bounded number of
// rejections, which is adequate for the generator's mild truncations.
func (s *Source) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	for i := 0; i < 64; i++ {
		v := s.Normal(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// LogNormal returns a draw whose logarithm is normal with parameters mu and
// sigma (the standard parameterization: median = exp(mu)).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LogNormalMedian returns a log-normal draw parameterized by its median and
// the sigma of the underlying normal — the natural way the demand model
// specifies "typical value with heavy right tail".
func (s *Source) LogNormalMedian(median, sigma float64) float64 {
	if median <= 0 {
		return 0
	}
	return s.LogNormal(math.Log(median), sigma)
}

// BoundedPareto returns a Pareto(xm, alpha) draw truncated to [xm, hi] by
// inversion (exact, no rejection loop).
func (s *Source) BoundedPareto(xm, hi, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 || hi <= xm {
		return xm
	}
	u := s.rng.Float64()
	la, ha := math.Pow(xm, alpha), math.Pow(hi, alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	return math.Min(hi, math.Max(xm, x))
}

// Poisson returns a draw from the Poisson distribution with the given mean,
// using Knuth's method for small means and normal approximation above 64
// (ample for session-arrival counts).
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := s.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// ErrEmptyWeights is returned by CategoricalErr when the weight vector is
// empty — the signature of a malformed catalog or mixture table.
var ErrEmptyWeights = errors.New("randx: categorical draw from empty weights")

// CategoricalErr returns an index drawn with probability proportional to
// the given non-negative weights. It returns ErrEmptyWeights (and -1) when
// weights is empty, so a malformed catalog or mixture table surfaces as an
// error instead of crashing a long generation run. If all weights are zero
// it returns a uniform index.
func (s *Source) CategoricalErr(weights []float64) (int, error) {
	if len(weights) == 0 {
		return -1, ErrEmptyWeights
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.IntN(len(weights)), nil
	}
	u := s.rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i, nil
		}
	}
	return len(weights) - 1, nil
}
