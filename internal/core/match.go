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
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
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
// shrinking caliper window (the O(T·C) scan this replaces examined every
// control for every treated user).
type MatchStats struct {
	// Treated is the number of treated users processed.
	Treated int
	// CandidatesExamined counts the distance evaluations actually made,
	// across all treated users: unused controls inside a treated user's
	// shrinking window, each checked against every confounder's reach
	// and, within it, against the caliper bands.
	CandidatesExamined int
	// DroppedByCaliper counts examined candidates rejected by those
	// checks: some confounder fell outside its reach or its caliper band.
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
// Controls are sorted once by (first confounder, view position), and their
// confounder rows are copied into that order, so a scan reads memory
// sequentially. Each treated user with first value v then walks outward
// from v, first up through the larger values and then down through the
// smaller ones, and stops each side at reach's bound: a control farther
// from v than that cannot beat or tie the best distance found so far, so
// the window starts as the caliper band on the first confounder and
// shrinks as better candidates turn up. A candidate must lie within reach
// on every other confounder (a comparison, no division) and then within
// every caliper band, and the distance of a survivor is summed in
// confounder order with the same expressions as the O(T·C) scan. Ties in
// distance resolve to the lowest control position in the view — the order
// the full scan would have found them in — so the selected pairs are
// identical to the full scan's.
//
// A control whose first confounder is not finite can never be selected
// (NaN fails every band and ±Inf makes the distance NaN), so it is left
// out of the sorted window; a treated user whose first value is not finite
// finds no control for the same reason. With caliper >= 1 or no
// confounders nothing bounds the window, and every control is examined in
// view order.
func (m Matcher) MatchWithStats(treated, control dataset.View, rng *randx.Source) ([]Pair, MatchStats) {
	caliper := m.Caliper
	if caliper <= 0 {
		caliper = DefaultCaliper
	}
	nt := treated.Len()
	stats := MatchStats{Treated: nt}
	order := make([]int, nt)
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}

	// Covariates are gathered from the panel columns into row-major
	// matrices up front: the treated in view order, the controls in scan
	// order. The control at scan position k has view position pos[k],
	// panel row rows[k] and first confounder key[k].
	nc := len(m.Confounders)
	windowed := nc > 0 && caliper < 1
	var pos []int32
	var key []float64
	if windowed {
		pos, key = sortedControls(control, m.Confounders[0].Value)
	} else {
		pos = make([]int32, control.Len())
		for i := range pos {
			pos[i] = int32(i)
		}
	}
	ns := len(pos)
	rows := make([]int32, ns)
	for k, i := range pos {
		rows[k] = control.Idx[i]
	}
	floors := make([]float64, nc)
	tvals := make([]float64, nc*nt)
	cvals := make([]float64, nc*ns)
	for j, c := range m.Confounders {
		floors[j] = c.Floor
		gather(tvals, nc, j, treated.Idx, c.Value, treated.P)
		gather(cvals, nc, j, rows, c.Value, control.P)
	}

	sc := controlScan{
		windowed:    windowed,
		caliper:     caliper,
		floors:      floors,
		reachFloors: reachFloors(caliper, floors, tvals, cvals),
		pos:         pos,
		key:         key,
		vals:        cvals,
		free:        newFreeList(ns),
		reaches:     make([]float64, nc),
		stats:       &stats,
	}
	var pairs []Pair
	for _, ti := range order {
		if best := sc.nearest(tvals[ti*nc : ti*nc+nc]); best >= 0 {
			sc.free.take(best)
			pairs = append(pairs, Pair{Treated: treated.Idx[ti], Control: rows[best]})
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

// controlScan is one call's controls in scan order, as MatchWithStats
// lays them out, plus the state the greedy matching carries between
// treated users.
type controlScan struct {
	windowed bool
	caliper  float64
	floors   []float64
	// reachFloors are the floors reach bounds with: +Inf for a
	// confounder whose band can overflow (see reachFloors).
	reachFloors []float64
	pos         []int32   // view position by scan position
	key         []float64 // first confounder by scan position (windowed only)
	vals        []float64 // confounder rows by scan position, row-major
	free        freeList  // unused scan positions
	reaches     []float64 // the current treated user's reach per confounder
	stats       *MatchStats
}

// nearest returns the scan position of the unused control nearest to the
// treated row tv (ties to the lowest view position), or -1 if no unused
// control is eligible.
func (s *controlScan) nearest(tv []float64) int {
	nc, caliper, floors, vals, pos := len(tv), s.caliper, s.floors, s.vals, s.pos
	for j := range tv {
		s.reaches[j] = reach(tv[j], 1, caliper, s.reachFloors[j])
	}
	// The scan visits the unused positions in [lo, hi), walking up from
	// next and then down from next-1.
	lo, hi, next := 0, len(pos), 0
	var v float64
	if s.windowed {
		v = tv[0]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return -1
		}
		next = sort.SearchFloat64s(s.key, v)
		lo, hi = shrink(s.key, lo, hi, v, s.reaches[0])
	} else {
		s.stats.WindowFallbacks++
	}
	best, bestDist := -1, math.Inf(1)
	examined, dropped := 0, 0
	for _, dir := range [2]int{1, -1} {
		// The up chain is indexed by position, the down chain by
		// position+1 (slot 0 stands for position -1).
		c, off, start := s.free.up, 0, next
		if dir < 0 {
			c, off, start = s.free.down, 1, next-1
		}
		for k := c.find(start+off) - off; lo <= k && k < hi; k = c.find(k+dir+off) - off {
			examined++
			cv := vals[k*nc : k*nc+nc]
			if !inReach(tv, cv, s.reaches) || !inBands(tv, cv, caliper, floors) {
				dropped++
				continue
			}
			// The normalized distance: the sum of confounder discrepancies,
			// each in [0,1] at the caliper boundary.
			d := 0.0
			for j := range cv {
				if diff, denom := band(tv[j], cv[j], caliper, floors[j]); denom > 0 {
					d += diff / denom
				}
			}
			if d < bestDist || (d == bestDist && pos[k] < pos[best]) {
				bestDist, best = d, k
				if s.windowed && d < 1 {
					for j := range tv {
						s.reaches[j] = reach(tv[j], d, caliper, s.reachFloors[j])
					}
					lo, hi = shrink(s.key, lo, hi, v, s.reaches[0])
				}
			}
		}
	}
	s.stats.CandidatesExamined += examined
	s.stats.DroppedByCaliper += dropped
	return best
}

// sortedControls returns the view positions of the controls whose first
// confounder is finite, sorted by (value, position), and those values in
// the same order.
func sortedControls(control dataset.View, first dataset.Column) ([]int32, []float64) {
	type keyed struct {
		v float64
		i int32
	}
	var ks []keyed
	if control.Len() > 0 {
		vals := first(control.P)
		ks = make([]keyed, 0, control.Len())
		for i, r := range control.Idx {
			if v := vals[r]; !math.IsNaN(v) && !math.IsInf(v, 0) {
				ks = append(ks, keyed{v, int32(i)})
			}
		}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.i, b.i))
	})
	pos := make([]int32, len(ks))
	key := make([]float64, len(ks))
	for k, e := range ks {
		pos[k], key[k] = e.i, e.v
	}
	return pos, key
}

// band returns a pair's discrepancy on one confounder and its caliper
// band: the pair is within the caliper when diff <= denom, and contributes
// diff/denom to the distance when denom > 0.
func band(a, b, caliper, floor float64) (diff, denom float64) {
	return math.Abs(a - b), caliper*max(math.Abs(a), math.Abs(b)) + floor
}

// inReach reports whether each confounder j >= 1 of a control lies within
// reaches[j] of the treated value, with one branch in all rather than one
// per confounder: the sign bits of reaches[j] − |cv[j] − tv[j]| are or-ed.
// A control out of reach cannot be selected (see reach); one within reach
// still has to pass inBands. A NaN difference may read either way: it
// comes from a NaN value, which fails inBands, or from infinities, which
// make the term NaN.
func inReach(tv, cv, reaches []float64) bool {
	var neg uint64
	for j := 1; j < len(cv); j++ {
		neg |= math.Float64bits(reaches[j] - math.Abs(cv[j]-tv[j]))
	}
	return neg>>63 == 0
}

// inBands reports whether every confounder of a candidate lies within its
// caliper band. The first confounder is checked last: the scan window
// already bounds it, so the others are the ones that usually fail.
func inBands(tv, cv []float64, caliper float64, floors []float64) bool {
	for j := 1; j < len(tv); j++ {
		if diff, denom := band(tv[j], cv[j], caliper, floors[j]); !(diff <= denom) {
			return false
		}
	}
	if len(tv) == 0 {
		return true
	}
	diff, denom := band(tv[0], cv[0], caliper, floors[0])
	return diff <= denom
}

// reach bounds how far a control's value c may lie from the treated value
// v on one confounder and still score a term of at most b there (b = 1:
// pass the caliper band at all). The distance is at least each of its
// terms, and since max(|v|,|c|) <= |v| + |c−v| a term is at least
// |c−v| / (caliper·(|v|+|c−v|) + floor), which exceeds b once
// |c−v| > b·(caliper·|v| + floor)/(1 − caliper·b). A control beyond reach
// on any confounder therefore cannot beat or tie a best distance of b
// (an infinite value may pass its band, but its term is NaN).
//
// The scan compares computed floats, so the bound is rounded outward: b,
// caliper·b and the result are widened by a relative 1e-12 (far above the
// few ulps the term's arithmetic can lose) and an absolute 1e-300 (above
// any subnormal underflow, so computed terms that round to 0 are kept
// when b = 0), and a negative or NaN floor, which only narrows the band,
// counts as 0. A candidate whose computed distance would tie b is never
// cut. When caliper·b comes too close to 1 the bound is +Inf. The bound
// assumes the band does not overflow; reachFloors rules that out.
func reach(v, b, caliper, floor float64) float64 {
	const rel, tiny = 1e-12, 1e-300
	if !(floor > 0) {
		floor = 0
	}
	bp := b*(1+rel) + tiny
	den := (1 - rel) - bp*caliper*(1+rel)
	if !(den > 0) {
		return math.Inf(1)
	}
	return bp*(caliper*math.Abs(v)+floor)*(1+rel)/den + tiny
}

// reachFloors returns the floors reach should bound each confounder with.
// reach's bound assumes a band caliper·max(|a|,|b|) + floor does not
// overflow: a band that rounds to +Inf makes the term 0 however far apart
// the pair is. So a confounder on which some finite value in play could
// push the band near overflow gets a floor of +Inf, which makes its reach
// +Inf: it bounds nothing. Ordinary data sits hundreds of orders of
// magnitude below that.
func reachFloors(caliper float64, floors, tvals, cvals []float64) []float64 {
	out := make([]float64, len(floors))
	for j, floor := range floors {
		big := 0.0
		for _, vals := range [2][]float64{tvals, cvals} {
			for i := j; i < len(vals); i += len(floors) {
				if a := math.Abs(vals[i]); a > big && !math.IsInf(a, 0) {
					big = a
				}
			}
		}
		out[j] = floor
		if !(caliper*big*(1+1e-12)+floor < math.MaxFloat64/2) {
			out[j] = math.Inf(1)
		}
	}
	return out
}

// shrink narrows the scan range [lo, hi) to the keys within x of v.
func shrink(key []float64, lo, hi int, v, x float64) (int, int) {
	lb, ub := v-x, v+x
	lo += sort.SearchFloat64s(key[lo:hi], lb)
	hi = lo + sort.Search(hi-lo, func(i int) bool { return key[lo+i] > ub })
	return lo, hi
}

// freeList tracks the unused controls by scan position with two chains:
// up leads from position k to the lowest unused position >= k (n if
// none), down from slot k+1 to the highest unused position <= k, plus
// one (slot 0 if none). A used position points one step past itself, and
// the chains are compressed as they are followed, so a scan skips a run
// of used controls in near-constant time.
type freeList struct {
	up, down chain
}

func newFreeList(n int) freeList {
	f := freeList{up: make(chain, n+1), down: make(chain, n+1)}
	for i := range f.up {
		f.up[i] = int32(i)
		f.down[i] = int32(i)
	}
	return f
}

// take marks position k used.
func (f freeList) take(k int) {
	f.up[k] = int32(k + 1)
	f.down[k+1] = int32(k)
}

// chain is one direction of a freeList: each slot points at itself when
// free, or toward the next free slot in its direction.
type chain []int32

// find returns the first free slot at or beyond k, pointing every slot on
// the way straight at it.
func (c chain) find(k int) int {
	if c[k] == int32(k) {
		return k
	}
	r := c[k]
	for c[r] != r {
		r = c[r]
	}
	for i := int32(k); c[i] != r; {
		c[i], i = r, c[i]
	}
	return int(r)
}

// gather writes column col of panel rows idx into dst, row-major with the
// given stride at offset j: dst[i*stride+j] = col(p)[idx[i]].
func gather(dst []float64, stride, j int, idx []int32, col dataset.Column, p *dataset.Panel) {
	if len(idx) == 0 {
		return // an empty view may carry no panel
	}
	vals := col(p)
	for i, r := range idx {
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
