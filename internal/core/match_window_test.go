package core

import (
	"math"
	"testing"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
)

// withinCaliper reports whether two covariate values are comparable: the
// ratio caliper rule the windowed matcher must reproduce.
func withinCaliper(a, b, caliper, floor float64) bool {
	hi := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= caliper*hi+floor
}

// distance is the matching distance between panel rows a and b: the sum
// of normalized confounder discrepancies (each in [0,1] at the caliper
// boundary).
func (m Matcher) distance(p *dataset.Panel, a, b int32, caliper float64) (float64, bool) {
	total := 0.0
	for _, c := range m.Confounders {
		vals := c.Value(p)
		va, vb := vals[a], vals[b]
		if !withinCaliper(va, vb, caliper, c.Floor) {
			return 0, false
		}
		hi := math.Max(math.Abs(va), math.Abs(vb))
		denom := caliper*hi + c.Floor
		if denom > 0 {
			total += math.Abs(va-vb) / denom
		}
	}
	return total, true
}

// referenceMatch is the pre-optimization O(T·C) greedy scan, kept as the
// behavioral oracle: the windowed matcher must select exactly the same
// pairs on any input. Both views select from one panel.
func referenceMatch(m Matcher, treated, control dataset.View, rng *randx.Source) []Pair {
	caliper := m.Caliper
	if caliper <= 0 {
		caliper = DefaultCaliper
	}
	p := treated.P
	order := make([]int, treated.Len())
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	used := make([]bool, control.Len())
	var pairs []Pair
	for _, ti := range order {
		t := treated.Idx[ti]
		best := -1
		bestDist := math.Inf(1)
		for ci, c := range control.Idx {
			if used[ci] {
				continue
			}
			d, ok := m.distance(p, t, c, caliper)
			if !ok {
				continue
			}
			if d < bestDist {
				bestDist = d
				best = ci
			}
		}
		if best >= 0 {
			used[best] = true
			pairs = append(pairs, Pair{Treated: t, Control: control.Idx[best]})
		}
	}
	sortPairsByTreatedID(p, pairs)
	return pairs
}

func sortPairsByTreatedID(p *dataset.Panel, pairs []Pair) {
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && p.ID[pairs[j].Treated] < p.ID[pairs[j-1].Treated]; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
}

// randomPopulation draws users with clustered covariates so calipers bind:
// duplicated values exercise the tie-break, and a wide tail exercises the
// window bounds.
func randomPopulation(rng *randx.Source, n int, idBase int64) []*dataset.User {
	users := make([]*dataset.User, n)
	for i := range users {
		rtt := 0.010 + 0.015*float64(rng.IntN(8)) // clustered: many exact ties
		if rng.Bool(0.2) {
			rtt = 0.010 + 0.490*rng.Float64() // tail
		}
		loss := 0.001 * float64(rng.IntN(5))
		price := 10 + 5*float64(rng.IntN(12))
		users[i] = mkUser(idBase+int64(i), rtt, loss*100, price, 5+45*rng.Float64(), 1+3*rng.Float64())
	}
	return users
}

// TestMatchWindowEquivalence fuzzes the windowed matcher against the full
// O(T·C) reference on randomized fixtures, shuffled and unshuffled, across
// caliper settings including ones where the window binds hard.
func TestMatchWindowEquivalence(t *testing.T) {
	matchers := []Matcher{
		{Confounders: []Confounder{ConfounderRTT(), ConfounderLoss()}},
		{Confounders: []Confounder{ConfounderRTT(), ConfounderAccessPrice(), ConfounderCapacity()}, Caliper: 0.1},
		{Confounders: []Confounder{ConfounderAccessPrice()}, Caliper: 0.5},
		{Confounders: []Confounder{ConfounderLoss()}, Caliper: 0.05}, // first confounder hugs zero: Floor dominates
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := randx.New(seed)
		treated, control := views(
			randomPopulation(rng.Split("treated"), 60+rng.IntN(60), 1),
			randomPopulation(rng.Split("control"), 120+rng.IntN(120), 10_000))
		ids := treated.P.ID
		for mi, m := range matchers {
			for _, shuffled := range []bool{false, true} {
				var rngA, rngB *randx.Source
				if shuffled {
					rngA = randx.New(seed * 77)
					rngB = randx.New(seed * 77)
				}
				want := referenceMatch(m, treated, control, rngA)
				got, stats := m.MatchWithStats(treated, control, rngB)
				if len(got) != len(want) {
					t.Fatalf("seed %d matcher %d shuffled=%v: %d pairs, reference %d",
						seed, mi, shuffled, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d matcher %d shuffled=%v: pair %d is (%d,%d), reference (%d,%d)",
							seed, mi, shuffled, i,
							ids[got[i].Treated], ids[got[i].Control],
							ids[want[i].Treated], ids[want[i].Control])
					}
				}
				if stats.Treated != treated.Len() {
					t.Errorf("stats.Treated = %d, want %d", stats.Treated, treated.Len())
				}
				if stats.Unmatched != treated.Len()-len(got) {
					t.Errorf("stats.Unmatched = %d, want %d", stats.Unmatched, treated.Len()-len(got))
				}
			}
		}
	}
}

// TestMatchWindowNarrows checks the point of the optimization: on a
// clustered population the window must examine far fewer candidates than
// the full T·C cross product, without giving up any matches.
func TestMatchWindowNarrows(t *testing.T) {
	rng := randx.New(42)
	treated, control := views(randomPopulation(rng.Split("t"), 150, 1), randomPopulation(rng.Split("c"), 600, 10_000))
	m := Matcher{Confounders: []Confounder{ConfounderRTT(), ConfounderLoss()}, Caliper: 0.1}
	_, stats := m.MatchWithStats(treated, control, nil)
	full := treated.Len() * control.Len()
	if stats.CandidatesExamined >= full/2 {
		t.Errorf("window examined %d of %d candidate pairs; expected a large reduction", stats.CandidatesExamined, full)
	}
	if stats.WindowFallbacks != 0 {
		t.Errorf("unexpected window fallbacks: %d", stats.WindowFallbacks)
	}
	if stats.DroppedByCaliper == 0 {
		t.Error("expected some candidates dropped by the residual caliper checks")
	}
}

// TestMatchFallback covers the paths that cannot window: caliper ≥ 1 and an
// empty confounder list must still agree with the reference (full scan).
func TestMatchFallback(t *testing.T) {
	rng := randx.New(7)
	treated, control := views(randomPopulation(rng.Split("t"), 30, 1), randomPopulation(rng.Split("c"), 60, 1000))
	for _, m := range []Matcher{
		{Confounders: []Confounder{ConfounderRTT()}, Caliper: 1.5},
		{Confounders: nil},
	} {
		want := referenceMatch(m, treated, control, nil)
		got, stats := m.MatchWithStats(treated, control, nil)
		if len(got) != len(want) {
			t.Fatalf("fallback: %d pairs, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fallback pair %d differs", i)
			}
		}
		if stats.WindowFallbacks != treated.Len() {
			t.Errorf("WindowFallbacks = %d, want %d", stats.WindowFallbacks, treated.Len())
		}
	}
}
