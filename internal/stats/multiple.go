package stats

import (
	"math"
	"sort"
)

// Multiple-testing machinery. The paper runs dozens of binomial tests
// (Tables 1–3, 6–8 and every rung of Table 2) at α = 0.05 each and guards
// against large-sample spuriousness with its 52% practical rule; the
// Benjamini–Hochberg procedure provides the complementary guard against
// multiplicity, and the minimum-detectable-fraction helper makes the
// paper's power trade-offs explicit.

// BenjaminiHochberg applies the Benjamini–Hochberg false-discovery-rate
// procedure at level q = 0.05 (the paper's α) to a family of p-values,
// returning a parallel slice marking the discoveries (p-values considered
// significant with FDR ≤ q).
func BenjaminiHochberg(pvals []float64) ([]bool, error) {
	if len(pvals) == 0 {
		return nil, ErrEmpty
	}
	type indexed struct {
		p float64
		i int
	}
	order := make([]indexed, len(pvals))
	for i, p := range pvals {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return nil, ErrShortSample
		}
		order[i] = indexed{p, i}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].p < order[b].p })
	m := float64(len(order))
	// Largest k with p_(k) ≤ k·q/m; everything at or below rank k is a
	// discovery.
	const q = 0.05
	cut := -1
	for k, e := range order {
		if e.p <= float64(k+1)*q/m {
			cut = k
		}
	}
	out := make([]bool, len(pvals))
	for k := 0; k <= cut; k++ {
		out[order[k].i] = true
	}
	return out, nil
}
