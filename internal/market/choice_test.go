package market

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// testSubscriber builds a subscriber whose saturation WTP scales with need,
// as the synthetic population does: wtpPerMbps dollars per Mbps of
// (headroom-stretched) need scale, so higher-need households value capacity
// proportionally more.
func testSubscriber(need, wtpPerMbps, budget float64) Subscriber {
	const headroom = 2
	return Subscriber{
		NeedMbps: need,
		WTP:      unit.USD(wtpPerMbps * headroom * need),
		Budget:   unit.USD(budget),
		Headroom: headroom,
	}
}

func TestValueSaturates(t *testing.T) {
	s := testSubscriber(4, 20, 100)
	v1 := s.Value(unit.MbpsOf(1))
	v8 := s.Value(unit.MbpsOf(8))
	v64 := s.Value(unit.MbpsOf(64))
	v512 := s.Value(unit.MbpsOf(512))
	if !(v1 < v8 && v8 < v64 && v64 < v512) {
		t.Errorf("value must be increasing: %v %v %v %v", v1, v8, v64, v512)
	}
	// Diminishing returns: the second doubling is worth less than the first.
	if (v64 - v8) <= (v512 - v64) {
		t.Errorf("value must be concave: Δ(8→64)=%v Δ(64→512)=%v", v64-v8, v512-v64)
	}
	// Saturation: far beyond need the value approaches the saturation WTP
	// (20 $/Mbps × headroom 2 × need 4 = $160).
	if v512 < 159.9 {
		t.Errorf("value at 512 Mbps = %v, want ≈ saturation WTP of $160", v512)
	}
	if s.Value(0) != 0 {
		t.Error("zero capacity should have zero value")
	}
	if (Subscriber{NeedMbps: 0, WTP: 20, Headroom: 2}).Value(unit.Mbps) != 0 {
		t.Error("zero need should have zero value")
	}
}

func TestUtilityBudget(t *testing.T) {
	s := testSubscriber(4, 20, 30)
	over := Plan{Down: unit.MbpsOf(100), PriceUSD: 31}
	if !math.IsInf(s.Utility(over), -1) {
		t.Error("over-budget plan must be infeasible")
	}
	within := Plan{Down: unit.MbpsOf(10), PriceUSD: 30}
	if math.IsInf(s.Utility(within), -1) {
		t.Error("at-budget plan must be feasible")
	}
}

func TestChooseCheapSlopeBuysHeadroom(t *testing.T) {
	// Identical subscribers facing Japan-like vs Botswana-like price lines
	// must choose very different capacities: the core of Sec. 5 and 6.
	jp := catalogFor(t, "JP")
	bw := catalogFor(t, "BW")
	s := testSubscriber(3, 4, 130)
	pJP, ok := Choose(jp, s, ChoiceConfig{}, nil)
	if !ok {
		t.Fatal("no plan chosen in JP")
	}
	pBW, ok := Choose(bw, s, ChoiceConfig{}, nil)
	if !ok {
		t.Fatal("no plan chosen in BW")
	}
	if pJP.Down.Mbps() < 8*pBW.Down.Mbps() {
		t.Errorf("cheap-slope market should buy far more capacity: JP=%v BW=%v", pJP.Down, pBW.Down)
	}
	// Japan purchases sit well beyond need (headroom), Botswana at/below it.
	if pJP.Down.Mbps() < 2*s.NeedMbps {
		t.Errorf("JP choice %v should exceed twice the need of %v Mbps", pJP.Down, s.NeedMbps)
	}
	if pBW.Down.Mbps() > 2*s.NeedMbps {
		t.Errorf("BW choice %v should hug the need of %v Mbps", pBW.Down, s.NeedMbps)
	}
}

func TestChooseBudgetBinds(t *testing.T) {
	bw := catalogFor(t, "BW")
	poor := testSubscriber(2, 10, 40) // cannot afford even the slowest tier at ~$50
	if _, ok := Choose(bw, poor, ChoiceConfig{}, nil); ok {
		t.Error("a $40 budget should afford nothing in Botswana")
	}
	rich := testSubscriber(2, 40, 400)
	p, ok := Choose(bw, rich, ChoiceConfig{}, nil)
	if !ok {
		t.Fatal("rich subscriber found no plan")
	}
	if p.PriceUSD > 400 {
		t.Errorf("chosen plan busts the budget: %v", p)
	}
}

func TestChooseMonotoneInNeedProperty(t *testing.T) {
	cat := catalogFor(t, "US")
	f := func(seedNeed uint8) bool {
		n1 := 0.5 + float64(seedNeed%10)
		n2 := n1 * 2
		a, okA := Choose(cat, testSubscriber(n1, 25, 200), ChoiceConfig{}, nil)
		b, okB := Choose(cat, testSubscriber(n2, 25, 200), ChoiceConfig{}, nil)
		if !okA || !okB {
			return false
		}
		return b.Down >= a.Down
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestChooseNeverPicksDedicated(t *testing.T) {
	cat := catalogFor(t, "AF")
	hasDedicated := false
	for _, p := range cat.Plans {
		if p.Dedicated {
			hasDedicated = true
		}
	}
	if !hasDedicated {
		t.Fatal("AF catalog should contain dedicated plans")
	}
	rng := randx.New(9)
	for i := 0; i < 50; i++ {
		p, ok := Choose(cat, testSubscriber(1+float64(i%5), 30, 1000), ChoiceConfig{NoiseUSD: 5}, rng)
		if ok && p.Dedicated {
			t.Fatal("chose a dedicated plan")
		}
	}
}

// TestChooseMaxDownMatchesTruncatedCatalog holds the availability limit to
// its definition: choosing under MaxDown is choosing from a catalog that
// holds only the shared plans at or below it. The pick and the taste
// shocks drawn — one per eligible plan, in catalog order — must agree,
// so the generator's stream after the choice is the same too.
func TestChooseMaxDownMatchesTruncatedCatalog(t *testing.T) {
	for _, code := range []string{"US", "AF", "DE"} {
		cat := catalogFor(t, code)
		for _, mbps := range []float64{0.5, 2, 6, 25, 1000} {
			limit := unit.MbpsOf(mbps)
			truncated := Catalog{Country: cat.Country}
			for _, p := range cat.Plans {
				if !p.Dedicated && p.Down <= limit {
					truncated.Plans = append(truncated.Plans, p)
				}
			}
			if len(truncated.Plans) == 0 {
				continue
			}
			for i := 0; i < 40; i++ {
				s := testSubscriber(0.5+float64(i%7), 25, 20+float64(i)*3)
				a, b := randx.New(uint64(i)).Split("choice"), randx.New(uint64(i)).Split("choice")
				got, gok := Choose(cat, s, ChoiceConfig{NoiseUSD: 4, MaxDown: limit}, a)
				want, wok := Choose(truncated, s, ChoiceConfig{NoiseUSD: 4}, b)
				if gok != wok || !samePlan(got, want) {
					t.Fatalf("%s ≤ %v Mbps, draw %d: chose (%v, %v), truncated catalog (%v, %v)", code, mbps, i, got, gok, want, wok)
				}
				if a.Float64() != b.Float64() {
					t.Fatalf("%s ≤ %v Mbps, draw %d: a different number of taste shocks drawn", code, mbps, i)
				}
			}
		}
	}
}

func TestSwitchingCostMakesSticky(t *testing.T) {
	cat := catalogFor(t, "US")
	s := testSubscriber(3, 25, 100)
	base, ok := Choose(cat, s, ChoiceConfig{}, nil)
	if !ok {
		t.Fatal("no base choice")
	}
	// With a small need increase and a large switching cost, the subscriber
	// stays; with zero switching cost they may move up.
	s2 := s
	s2.NeedMbps *= 1.3
	sticky, ok := Choose(cat, s2, ChoiceConfig{Current: &base, SwitchingCost: 500}, nil)
	if !ok {
		t.Fatal("no sticky choice")
	}
	if !samePlan(sticky, base) {
		t.Errorf("a $500 switching cost should pin the subscriber to %v, got %v", base, sticky)
	}
}

func TestChooseNoiseChangesChoices(t *testing.T) {
	cat := catalogFor(t, "US")
	s := testSubscriber(3, 25, 100)
	rng := randx.New(4).Split("noise")
	seen := map[float64]bool{}
	for i := 0; i < 60; i++ {
		p, ok := Choose(cat, s, ChoiceConfig{NoiseUSD: 6}, rng)
		if !ok {
			t.Fatal("no choice")
		}
		seen[p.Down.Mbps()] = true
	}
	if len(seen) < 2 {
		t.Error("taste shocks should spread choices over multiple tiers")
	}
}

func TestGumbelMoments(t *testing.T) {
	// Standard Gumbel has mean ≈ 0.5772 (Euler–Mascheroni).
	rng := randx.New(5).Split("gumbel")
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += gumbel(rng)
	}
	if mean := sum / float64(n); math.Abs(mean-0.5772) > 0.02 {
		t.Errorf("gumbel mean = %v, want ≈0.577", mean)
	}
}
