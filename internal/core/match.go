// Package core implements the paper's methodological contribution: natural
// experiments over observational broadband data. Treatment and control
// populations are compared after nearest-neighbor matching on confounders
// with a ratio caliper (Sec. 2.3 and 3.2), and hypotheses are evaluated
// with one-tailed binomial tests plus the practical-importance rule that
// guards against large-sample false positives.
//
// The same machinery also runs the within-subject (before/after upgrade)
// design and arbitrary placebo experiments, which the test suite uses to
// check that the engine does not manufacture effects.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
)

// DefaultCaliper is the paper's matching tolerance: confounder values of a
// matched pair must be within 25% of each other.
const DefaultCaliper = 0.25

// Confounder is one covariate users must agree on (within the caliper) to
// be considered comparable.
type Confounder struct {
	// Name labels the confounder in diagnostics.
	Name string
	// Value selects the covariate's panel column.
	Value dataset.Column
	// Floor is an absolute slack added to the caliper band, for covariates
	// that legitimately approach zero (e.g. loss rates): |a−b| must not
	// exceed caliper·max(a,b) + Floor.
	Floor float64
}

// Standard confounder constructors for the covariates the paper matches on.
func ConfounderRTT() Confounder {
	return Confounder{Name: "latency", Value: func(p *dataset.Panel) []float64 { return p.RTT }, Floor: 0.002}
}

// ConfounderLoss matches on packet-loss rate.
func ConfounderLoss() Confounder {
	return Confounder{Name: "loss", Value: func(p *dataset.Panel) []float64 { return p.Loss }, Floor: 0.0005}
}

// ConfounderAccessPrice matches on the market's price of broadband access.
func ConfounderAccessPrice() Confounder {
	return Confounder{Name: "access-price", Value: func(p *dataset.Panel) []float64 { return p.AccessPrice }}
}

// ConfounderUpgradeCost matches on the market's cost of increasing capacity.
func ConfounderUpgradeCost() Confounder {
	return Confounder{Name: "upgrade-cost", Value: func(p *dataset.Panel) []float64 { return p.UpgradeCost }, Floor: 0.02}
}

// ConfounderCapacity matches on measured link capacity.
func ConfounderCapacity() Confounder {
	return Confounder{Name: "capacity", Value: func(p *dataset.Panel) []float64 { return p.Capacity }}
}

// Pair is one matched treated/control pair: row indices into the panel
// both populations were selected from.
type Pair struct {
	Treated int32
	Control int32
}

// Matcher performs greedy one-to-one nearest-neighbor matching without
// replacement under a ratio caliper.
type Matcher struct {
	Confounders []Confounder
	// Caliper is the relative tolerance per confounder (default 0.25).
	Caliper float64
}

// MatchStats reports the work the matcher did — the diagnostic behind the
// sort-plus-binary-search caliper window (the O(T·C) scan this replaces
// examined every control for every treated user).
type MatchStats struct {
	// Treated is the number of treated users processed.
	Treated int
	// CandidatesExamined counts control candidates whose full confounder
	// distance was evaluated, across all treated users.
	CandidatesExamined int
	// DroppedByCaliper counts examined candidates rejected because some
	// confounder fell outside the caliper band.
	DroppedByCaliper int
	// Unmatched counts treated users that found no eligible control.
	Unmatched int
	// WindowFallbacks counts treated users whose scan could not be narrowed
	// (caliper >= 1 or no confounders) and examined every control.
	WindowFallbacks int
}

// Match pairs each treated user with its nearest eligible control, greedily
// and without replacement. Treated users with no eligible control are
// dropped (the caliper's purpose). The iteration order is randomized by rng
// so greedy choices carry no dataset-order bias; pass nil for deterministic
// input order. Both views should select from one panel: a Pair's
// Treated index addresses treated.P and its Control index control.P.
func (m Matcher) Match(treated, control dataset.View, rng *randx.Source) []Pair {
	pairs, _ := m.MatchWithStats(treated, control, rng)
	return pairs
}

// MatchWithStats is Match plus work diagnostics.
//
// Controls are sorted once by the first confounder; each treated user then
// scans only the window of controls that can possibly satisfy that
// confounder's caliper. From |a−b| ≤ caliper·max(|a|,|b|) + floor and
// max(|a|,|b|) ≤ |a| + |a−b| follows |a−b| ≤ (caliper·|a| + floor)/(1−caliper),
// so the window [v−r, v+r] with r = (caliper·|v| + floor)/(1−caliper) is a
// superset of the eligible controls whenever caliper < 1. Candidates inside
// the window still pass through the exact per-confounder distance check,
// and ties in distance resolve to the lowest control position in the view
// — the order the full scan would have found them in — so the selected
// pairs are identical to the O(T·C) algorithm's.
func (m Matcher) MatchWithStats(treated, control dataset.View, rng *randx.Source) ([]Pair, MatchStats) {
	caliper := m.Caliper
	if caliper <= 0 {
		caliper = DefaultCaliper
	}
	nt, nctl := treated.Len(), control.Len()
	stats := MatchStats{Treated: nt}
	order := make([]int, nt)
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}

	// Covariates are gathered from the panel columns into row-major
	// matrices up front, so the candidate scan below works on flat float64
	// slices in view order.
	nc := len(m.Confounders)
	floors := make([]float64, nc)
	tvals := make([]float64, nc*nt)
	cvals := make([]float64, nc*nctl)
	for j, c := range m.Confounders {
		floors[j] = c.Floor
		gather(tvals, nc, j, treated, c.Value)
		gather(cvals, nc, j, control, c.Value)
	}

	// Sorted view of the controls on the first confounder. The sort is by
	// (value, original index), so window scans visit candidates in a
	// deterministic order whatever sort.Slice does with equal values.
	windowed := nc > 0 && caliper < 1
	var firstFloor float64
	var ctlVals []float64 // control value on the first confounder, by sorted position
	var ctlIdx []int      // original control index, by sorted position
	if windowed {
		firstFloor = floors[0]
		ctlVals = make([]float64, nctl)
		ctlIdx = make([]int, nctl)
		for i := range ctlIdx {
			ctlIdx[i] = i
		}
		sort.Slice(ctlIdx, func(a, b int) bool {
			va, vb := cvals[ctlIdx[a]*nc], cvals[ctlIdx[b]*nc]
			if va != vb {
				return va < vb
			}
			return ctlIdx[a] < ctlIdx[b]
		})
		for i, ci := range ctlIdx {
			ctlVals[i] = cvals[ci*nc]
		}
	}

	used := make([]bool, nctl)
	var pairs []Pair
	for _, ti := range order {
		tv := tvals[ti*nc : ti*nc+nc]
		lo, hi := 0, nctl
		if windowed {
			v := tv[0]
			r := (caliper*math.Abs(v) + firstFloor) / (1 - caliper)
			lo = sort.SearchFloat64s(ctlVals, v-r)
			hi = sort.SearchFloat64s(ctlVals, v+r)
			// SearchFloat64s finds the first value >= v+r; values equal to
			// the bound are still admissible candidates.
			for hi < len(ctlVals) && ctlVals[hi] == v+r {
				hi++
			}
		} else {
			stats.WindowFallbacks++
		}
		best := -1
		bestDist := math.Inf(1)
		for k := lo; k < hi; k++ {
			ci := k
			if windowed {
				ci = ctlIdx[k]
			}
			if used[ci] {
				continue
			}
			stats.CandidatesExamined++
			// The normalized distance: the sum of confounder discrepancies,
			// each in [0,1] at the caliper boundary; any confounder outside
			// its band disqualifies the candidate.
			cv := cvals[ci*nc : ci*nc+nc]
			d := 0.0
			ok := true
			for j := 0; j < nc; j++ {
				va, vb := tv[j], cv[j]
				diff := va - vb
				if diff < 0 {
					diff = -diff
				}
				aa, ab := va, vb
				if aa < 0 {
					aa = -aa
				}
				if ab < 0 {
					ab = -ab
				}
				hiv := aa
				if ab > hiv {
					hiv = ab
				}
				denom := caliper*hiv + floors[j]
				if !(diff <= denom) {
					ok = false
					break
				}
				if denom > 0 {
					d += diff / denom
				}
			}
			if !ok {
				stats.DroppedByCaliper++
				continue
			}
			if d < bestDist || (d == bestDist && ci < best) {
				bestDist = d
				best = ci
			}
		}
		if best >= 0 {
			used[best] = true
			pairs = append(pairs, Pair{Treated: treated.Idx[ti], Control: control.Idx[best]})
		} else {
			stats.Unmatched++
		}
	}
	// Stable output order (by treated user ID) regardless of shuffle.
	if len(pairs) > 1 {
		ids := treated.P.ID
		sort.Slice(pairs, func(i, j int) bool { return ids[pairs[i].Treated] < ids[pairs[j].Treated] })
	}
	return pairs, stats
}

// gather writes column col of the rows of v into dst, row-major with the
// given stride at offset j: dst[i*stride+j] = col(v.P)[v.Idx[i]].
func gather(dst []float64, stride, j int, v dataset.View, col dataset.Column) {
	if v.Len() == 0 {
		return // an empty view may carry no panel
	}
	vals := col(v.P)
	for i, r := range v.Idx {
		dst[i*stride+j] = vals[r]
	}
}

// commonPanel returns the panel both populations select from. An empty
// view matches any panel; two non-empty views over different panels are
// an error, because a Pair's two indices must address one table.
func commonPanel(a, b dataset.View) (*dataset.Panel, error) {
	switch {
	case a.Len() == 0:
		return b.P, nil
	case b.Len() == 0 || a.P == b.P:
		return a.P, nil
	}
	return nil, errors.New("treatment and control select from different panels")
}

// Balance summarizes covariate balance of a matched set: for each
// confounder, the mean treated and control values. A matched design is
// credible when these agree closely; experiments print it as a diagnostic.
type Balance struct {
	Confounder  string
	MeanTreated float64
	MeanControl float64
}

// CheckBalance computes the balance table for a matched set whose pairs
// index into p.
func (m Matcher) CheckBalance(p *dataset.Panel, pairs []Pair) []Balance {
	out := make([]Balance, 0, len(m.Confounders))
	for _, c := range m.Confounders {
		var t, ctl float64
		if len(pairs) > 0 {
			vals := c.Value(p)
			for _, pr := range pairs {
				t += vals[pr.Treated]
				ctl += vals[pr.Control]
			}
		}
		n := float64(len(pairs))
		if n > 0 {
			t /= n
			ctl /= n
		}
		out = append(out, Balance{Confounder: c.Name, MeanTreated: t, MeanControl: ctl})
	}
	return out
}

// String renders a balance row.
func (b Balance) String() string {
	return fmt.Sprintf("%s: treated %.4g vs control %.4g", b.Confounder, b.MeanTreated, b.MeanControl)
}
