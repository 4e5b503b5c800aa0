package core

import (
	"math"
	"testing"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
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

// sameMatch reports whether the matcher's pairs equal the reference's.
func sameMatch(m Matcher, treated, control dataset.View, seed uint64) (got, want []Pair, ok bool) {
	var rngA, rngB *randx.Source
	if seed != 0 {
		rngA, rngB = randx.New(seed), randx.New(seed)
	}
	want = referenceMatch(m, treated, control, rngA)
	got, _ = m.MatchWithStats(treated, control, rngB)
	if len(got) != len(want) {
		return got, want, false
	}
	for i := range want {
		if got[i] != want[i] {
			return got, want, false
		}
	}
	return got, want, true
}

// TestMatchWindowNaN pins the NaN rule: a control whose first confounder
// is NaN can never pass the caliper, and it must not disturb the sorted
// window either. Sorting it in breaks the comparator's strict weak order,
// so the window search then misses eligible controls.
func TestMatchWindowNaN(t *testing.T) {
	matchers := []Matcher{
		{Confounders: []Confounder{ConfounderAccessPrice(), ConfounderRTT()}},
		{Confounders: []Confounder{ConfounderAccessPrice()}, Caliper: 0.1},
	}
	bad := 0
	for seed := uint64(1); seed <= 200; seed++ {
		rng := randx.New(seed)
		pop := func(name string, n int, idBase int64) []*dataset.User {
			users := randomPopulation(rng.Split(name), n, idBase)
			nan := rng.Split(name + "/nan")
			for _, u := range users {
				if nan.Bool(0.05) {
					u.AccessPrice = unit.USD(math.NaN())
				}
			}
			return users
		}
		treated, control := views(pop("treated", 40+rng.IntN(40), 1), pop("control", 80+rng.IntN(80), 10_000))
		for mi, m := range matchers {
			for _, shuffle := range []uint64{0, seed * 31} {
				got, want, ok := sameMatch(m, treated, control, shuffle)
				if !ok {
					bad++
					if bad <= 3 {
						t.Errorf("seed %d matcher %d shuffle %d: pairs differ from the reference (%d vs %d pairs)",
							seed, mi, shuffle, len(got), len(want))
					}
				}
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of 800 fixtures disagree with the reference", bad)
	}
}

// Values and floors the fuzz decoder can pick by index: signed zeros,
// subnormals, the smallest normal, caliper-boundary ratios, huge values,
// ±Inf and NaN.
var (
	fuzzSpecials = []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
		1, -1, 0.8, 1.25, 0.75, 4.0 / 3, 0.5, -0.5, 1e300, -1e300, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	fuzzFloors = []float64{0, 0.002, 0.0005, 0.02, 1, 4, 5e-324, 1e-300, 1e308}
)

// fuzzValue encodes v so that decodeFuzzFixture reads it back exactly.
func fuzzValue(v float64) []byte {
	b := make([]byte, 9)
	b[0] = 255
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		b[1+i] = byte(bits >> (8 * i))
	}
	return b
}

// fuzzFixture is a seed input: n treated and m controls, then each user's
// confounder values in order.
func fuzzFixture(n, m int, vals ...float64) []byte {
	raw := []byte{byte(n - 1), byte(m - 1)}
	for _, v := range vals {
		raw = append(raw, fuzzValue(v)...)
	}
	return raw
}

// decodeFuzzFixture builds a matcher and one panel from fuzz input: 1–4
// confounders over four panel columns, a caliper in (0,1), floors from
// fuzzFloors, then 1–16 treated and 1–32 control rows. A value is a small
// rational (many exact ties and negatives), a fuzzSpecials entry, or any
// float64 bit pattern; input running out reads as zeros.
func decodeFuzzFixture(raw []byte, nconf uint8, caliper float64, floors uint32) (Matcher, dataset.View, dataset.View) {
	next := func() byte {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return b
	}
	value := func() float64 {
		switch tag := next(); {
		case tag < 160:
			return float64(int(next())-128) / float64(1+tag%8)
		case tag < 255:
			return fuzzSpecials[int(next())%len(fuzzSpecials)]
		default:
			var bits uint64
			for i := 0; i < 8; i++ {
				bits |= uint64(next()) << (8 * i)
			}
			return math.Float64frombits(bits)
		}
	}
	cols := []func(p *dataset.Panel) []float64{
		func(p *dataset.Panel) []float64 { return p.RTT },
		func(p *dataset.Panel) []float64 { return p.Loss },
		func(p *dataset.Panel) []float64 { return p.AccessPrice },
		func(p *dataset.Panel) []float64 { return p.UpgradeCost },
	}
	if !(caliper > 0 && caliper < 1) {
		caliper = math.Abs(caliper - math.Trunc(caliper))
		if !(caliper > 0) {
			caliper = DefaultCaliper
		}
	}
	m := Matcher{Caliper: caliper}
	for j := 0; j < 1+int(nconf)%4; j++ {
		floor := fuzzFloors[int(floors>>(8*j)&0xff)%len(fuzzFloors)]
		m.Confounders = append(m.Confounders, Confounder{Name: "c", Value: cols[j], Floor: floor})
	}
	nt, nctl := 1+int(next())%16, 1+int(next())%32
	p := dataset.NewPanel(nt + nctl)
	for i := 0; i < nt+nctl; i++ {
		p.Append(&dataset.User{ID: int64(i)})
		for _, c := range m.Confounders {
			c.Value(p)[i] = value()
		}
	}
	treated, control := dataset.View{P: p}, dataset.View{P: p}
	for i := 0; i < nt+nctl; i++ {
		if i < nt {
			treated.Idx = append(treated.Idx, int32(i))
		} else {
			control.Idx = append(control.Idx, int32(i))
		}
	}
	return m, treated, control
}

// FuzzMatchWindow holds the windowed, best-first matcher to the O(T·C)
// reference on adversarial values, shuffled and unshuffled. The seeds aim
// at what the shrinking bound can get wrong: negative values, zeros with
// no floor, exact ties at the best distance, subnormal terms that round to
// a zero distance, ±Inf and NaN.
func FuzzMatchWindow(f *testing.F) {
	negInf, nan := math.Inf(-1), math.NaN()
	seeds := []struct {
		raw     []byte
		nconf   uint8
		caliper float64
		floors  uint32
	}{
		// Negative values, as in a market with a negative fitted upgrade cost.
		{fuzzFixture(2, 4, -2, -0.5, -2.4, -1.7, 2, -0.6), 0, 0.25, 0},
		// Zeros with floor 0: only an exact zero matches a zero.
		{fuzzFixture(2, 3, 0, 0, 5e-324, 0, -0.0), 0, 0.25, 0},
		// Symmetric controls tie exactly; the lower index, found last, must win.
		{fuzzFixture(1, 3, 0, -0.5, 0.5, 0.5), 0, 1e-9, 4},
		// A subnormal term rounds to 0 and ties a zero distance (B = 0).
		{fuzzFixture(1, 2, 0, 5e-324, 0), 0, 0.5, 5},
		{fuzzFixture(1, 3, 1e-310, 1e-310, 5e-324, 1e-310), 0, 0.75, 6},
		// A huge floor rounds a normal-sized term to 0 (B = 0 again).
		{fuzzFixture(1, 2, 0.5, 0.5+0x1p-53, 0.5), 0, 0.25, 8},
		// Two confounders: equal first terms, ties decided by the second.
		{fuzzFixture(1, 3, 1, 1, 1.1, 1.1, 0.9, 0.9, 1.1, 1.1), 1, 0.25, 0},
		// A band that overflows to +Inf makes a far control's term 0.
		{fuzzFixture(1, 2, -80, -79, math.MaxFloat64), 0, 0.5, 8},
		// ±Inf and NaN in every position.
		{fuzzFixture(2, 4, math.Inf(1), 1, 1, nan, negInf, 1, nan, 1, 1, math.Inf(1), 1, negInf), 1, 0.25, 0},
		// A caliper just under 1 leaves the bound unbounded.
		{fuzzFixture(1, 3, 1, 1e300, -1e300, 2), 0, 0.9999999999999999, 0},
		// A caliper near 0: the floor does all the work.
		{fuzzFixture(2, 4, 0.001, 0.01, 0.0012, 0.0009, 0.011, 0.009), 3, 1e-300, 0x01030202},
	}
	for _, s := range seeds {
		f.Add(s.raw, s.nconf, s.caliper, s.floors, uint64(7))
	}
	f.Fuzz(func(t *testing.T, raw []byte, nconf uint8, caliper float64, floors uint32, seed uint64) {
		m, treated, control := decodeFuzzFixture(raw, nconf, caliper, floors)
		for _, shuffle := range []uint64{0, seed | 1} {
			got, want, ok := sameMatch(m, treated, control, shuffle)
			if !ok {
				t.Fatalf("caliper %v, %d confounders, shuffle %d: pairs %v, reference %v",
					m.Caliper, len(m.Confounders), shuffle, got, want)
			}
		}
	})
}
