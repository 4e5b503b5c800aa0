package stats

import "math"

// Online (single-pass) statistics: the streaming counterparts of the exact
// estimators in desc.go / quantile.go, used when the sample is a
// one-row-at-a-time stream too large to materialize (a dataset.EachUser
// walk). Two layers:
//
//   - Moments: Welford running mean and variance with exact min/max;
//   - OnlineECDF: a fixed-bin, log-spaced single-pass ECDF
//     supporting Quantile with a declared worst-case resolution.
//
// Both reject NaN at Add, mirroring the exact layer's ErrNaN contract
// (PR 6), so a corrupt stream cannot silently poison a sketch.

// Moments accumulates count, mean, variance (Welford's algorithm) and the
// exact min/max of a stream in O(1) memory. The zero value is ready to use.
type Moments struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation in. NaN observations return ErrNaN and leave
// the accumulator unchanged.
func (m *Moments) Add(x float64) error {
	if math.IsNaN(x) {
		return ErrNaN
	}
	m.n++
	if m.n == 1 {
		m.mean, m.min, m.max = x, x, x
		return nil
	}
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
	if x < m.min {
		m.min = x
	}
	if x > m.max {
		m.max = x
	}
	return nil
}

// N returns the number of observations folded in.
func (m *Moments) N() int64 { return m.n }

// Mean returns the running mean (ErrEmpty before any observation).
func (m *Moments) Mean() (float64, error) {
	if m.n == 0 {
		return 0, ErrEmpty
	}
	return m.mean, nil
}

// Variance returns the unbiased (n−1) sample variance, matching the
// two-pass Variance up to floating-point association.
func (m *Moments) Variance() (float64, error) {
	if m.n == 0 {
		return 0, ErrEmpty
	}
	if m.n < 2 {
		return 0, ErrShortSample
	}
	return m.m2 / float64(m.n-1), nil
}

// StdDev returns the unbiased sample standard deviation.
func (m *Moments) StdDev() (float64, error) {
	v, err := m.Variance()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Min returns the smallest observation seen.
func (m *Moments) Min() (float64, error) {
	if m.n == 0 {
		return 0, ErrEmpty
	}
	return m.min, nil
}

// Max returns the largest observation seen.
func (m *Moments) Max() (float64, error) {
	if m.n == 0 {
		return 0, ErrEmpty
	}
	return m.max, nil
}

// OnlineECDF is a single-pass binned approximation of an ECDF: a fixed
// number of log-spaced bins spanning [Lo, Hi] (the metrics it sketches —
// bitrates, volumes — are positive and scale-free) counts observations as
// they stream by;
// Quantile interpolates within bins. Observations outside the
// configured span clamp into the first/last bin, and the exact min/max are
// tracked so the distribution's support is reported truthfully.
//
// The worst-case quantile error is one bin: |Quantile(p) − exact| is
// bounded by the containing bin's width (relative width ≈ (Hi/Lo)^(1/Bins)
// − 1). Declare tolerances accordingly (DESIGN.md §8).
type OnlineECDF struct {
	lo, hi float64
	counts []int64
	n      int64
	min    float64
	max    float64
}

// NewOnlineECDF builds an empty binned ECDF over [lo, hi]. The bin edges
// are geometrically spaced, so lo must be positive.
func NewOnlineECDF(lo, hi float64, bins int) (*OnlineECDF, error) {
	if bins < 1 || math.IsNaN(lo) || math.IsNaN(hi) || lo >= hi || lo <= 0 {
		return nil, ErrInvalidBins
	}
	return &OnlineECDF{lo: lo, hi: hi, counts: make([]int64, bins)}, nil
}

// pos maps a value onto the continuous bin coordinate in [0, Bins].
func (e *OnlineECDF) pos(x float64) float64 {
	f := math.Log(x/e.lo) / math.Log(e.hi/e.lo)
	return f * float64(len(e.counts))
}

// edge is the inverse of pos: the value at continuous bin coordinate c.
func (e *OnlineECDF) edge(c float64) float64 {
	f := c / float64(len(e.counts))
	return e.lo * math.Exp(f*math.Log(e.hi/e.lo))
}

// Add folds one observation in. Values at or outside the span clamp into
// the terminal bins (the exact min/max are still tracked); NaN returns
// ErrNaN and is not folded.
func (e *OnlineECDF) Add(x float64) error {
	if math.IsNaN(x) {
		return ErrNaN
	}
	i := 0
	if x > e.lo { // also filters x <= 0
		i = int(e.pos(x))
		if i >= len(e.counts) {
			i = len(e.counts) - 1
		}
	}
	e.counts[i]++
	e.n++
	if e.n == 1 {
		e.min, e.max = x, x
		return nil
	}
	if x < e.min {
		e.min = x
	}
	if x > e.max {
		e.max = x
	}
	return nil
}

// Quantile returns the approximate p-quantile: the bin containing the
// p·n-th observation, interpolated linearly in the bin-coordinate domain
// (so geometrically in value) and clamped to the exact observed range.
func (e *OnlineECDF) Quantile(p float64) (float64, error) {
	if e.n == 0 {
		return 0, ErrEmpty
	}
	if math.IsNaN(p) {
		return math.NaN(), nil
	}
	if p <= 0 {
		return e.min, nil
	}
	if p >= 1 {
		return e.max, nil
	}
	target := p * float64(e.n)
	var cum int64
	for i, c := range e.counts {
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= target {
			frac := (target - float64(cum)) / float64(c)
			x := e.edge(float64(i) + frac)
			// The terminal bins absorb out-of-span values; the exact
			// extrema bound every answer truthfully.
			if x < e.min {
				x = e.min
			}
			if x > e.max {
				x = e.max
			}
			return x, nil
		}
		cum += c
	}
	return e.max, nil
}
