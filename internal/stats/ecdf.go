package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ECDF is an empirical cumulative distribution function over a sample. Every
// "CDF of users" figure in the paper is an ECDF; the type also supports
// quantile lookup and a compact text rendering for terminal output.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample (which it copies and sorts). A
// sample containing NaN returns ErrNaN: sort.Float64s leaves NaNs in
// unspecified positions, so quantiles over NaN-contaminated data
// would be nondeterministic garbage — the same contract Quantile and the
// rest of the order-statistic family enforce.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	for _, x := range s {
		if math.IsNaN(x) {
			return nil, ErrNaN
		}
	}
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// Quantile returns the p-quantile of the underlying sample (type 7).
func (e *ECDF) Quantile(p float64) float64 { return quantileSorted(e.sorted, p) }

// RenderQuantiles formats the ECDF as a fixed set of quantiles, the compact
// representation used in the experiment reports. format is applied to each
// x value (e.g. to attach units).
func (e *ECDF) RenderQuantiles(format func(float64) string) string {
	if format == nil {
		format = func(v float64) string { return fmt.Sprintf("%.4g", v) }
	}
	var b strings.Builder
	for i, p := range []float64{0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95} {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "p%02.0f=%s", p*100, format(e.Quantile(p)))
	}
	return b.String()
}
