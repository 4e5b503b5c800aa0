package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/synth"
)

// The shared evaluation world: large enough for every experiment's groups,
// built once.
var (
	worldOnce sync.Once
	worldVal  *synth.World
	worldErr  error
)

func evalData(t *testing.T) *dataset.Dataset {
	t.Helper()
	worldOnce.Do(func() {
		worldVal, worldErr = synth.Build(synth.Config{
			Seed: 20140705, Users: 2500, FCCUsers: 600, Days: 2,
			SwitchTarget: 400, MinPerCountry: 30,
		})
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return &worldVal.Data
}

func rng(label string) *randx.Source { return randx.New(99).Split(label) }

func TestRegistryRunsEverything(t *testing.T) {
	t.Parallel()
	d := evalData(t)
	entries := Registry()
	if len(entries) != 20 {
		t.Fatalf("registry has %d entries, want 20 (every table and figure)", len(entries))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.ID] {
			t.Errorf("duplicate registry id %s", e.ID)
		}
		seen[e.ID] = true
		rep, err := e.Run(d, rng(e.ID))
		if err != nil {
			t.Errorf("%s failed: %v", e.ID, err)
			continue
		}
		if rep.ID() != e.ID {
			t.Errorf("report id %q != entry id %q", rep.ID(), e.ID)
		}
		out := rep.Render()
		if len(out) < 40 || !strings.Contains(out, e.ID) {
			t.Errorf("%s render looks empty: %q", e.ID, out)
		}
	}
	if _, ok := Find("Table 2"); !ok {
		t.Error("Find failed on a known id")
	}
	if _, ok := Find("Table 99"); ok {
		t.Error("Find resolved a bogus id")
	}
}

func TestFig01Shapes(t *testing.T) {
	t.Parallel()
	rep, err := RunFig01(evalData(t), rng("f1"))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.(*Fig01)
	if f.Capacity.Median < 3.5 || f.Capacity.Median > 14 {
		t.Errorf("median capacity %.2f Mbps outside the paper's ≈7.4 regime", f.Capacity.Median)
	}
	if f.FracBelow1Mbps < 0.03 || f.FracBelow1Mbps > 0.45 {
		t.Errorf("share below 1 Mbps = %.2f, paper ≈0.10", f.FracBelow1Mbps)
	}
	if f.FracLossOver1 < 0.03 || f.FracLossOver1 > 0.35 {
		t.Errorf("share above 1%% loss = %.2f, paper ≈0.14", f.FracLossOver1)
	}
	if f.FracRTTOver500 <= 0 || f.FracRTTOver500 > 0.2 {
		t.Errorf("share above 500 ms = %.2f, paper ≈0.05", f.FracRTTOver500)
	}
}

func TestFig02CorrelationAndDiminishingReturns(t *testing.T) {
	t.Parallel()
	rep, err := RunFig02(evalData(t), rng("f2"))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.(*Fig02)
	if len(f.Panels) != 4 {
		t.Fatalf("panels = %d", len(f.Panels))
	}
	for _, p := range f.Panels {
		if p.R < 0.75 {
			t.Errorf("panel %q r = %.3f, paper reports ≥0.87", p.Name, p.R)
		}
		// Monotone overall: highest class uses more than lowest.
		pts := p.Series.Points
		if pts[len(pts)-1].Y <= pts[0].Y {
			t.Errorf("panel %q not increasing overall", p.Name)
		}
	}
	// Diminishing returns as the paper states it — "as capacity increases,
	// usage begins to level off": the per-doubling growth over the last two
	// class transitions must fall below the growth over the preceding
	// transitions. Tiny bins (N<30) are excluded (their CI-wide noise can
	// tilt ratios either way).
	for _, idx := range []int{2, 3} { // mean no BT, peak no BT
		tailGain, midGain, ok := tailFlattening(f.Panels[idx].Series)
		if !ok {
			t.Fatalf("panel %q too short for the flattening check", f.Panels[idx].Name)
		}
		if tailGain >= midGain {
			t.Errorf("panel %q does not level off: tail per-doubling gain %.3f ≥ mid gain %.3f",
				f.Panels[idx].Name, tailGain, midGain)
		}
	}
}

func TestFig03VantageComparison(t *testing.T) {
	t.Parallel()
	rep, err := RunFig03(evalData(t), rng("f3"))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.(*Fig03)
	if f.RMean < 0.7 || f.RPeak < 0.7 {
		t.Errorf("cross-vantage correlations too weak: rMean=%.3f rPeak=%.3f", f.RMean, f.RPeak)
	}
	if f.MeanRatio < 1.02 {
		t.Errorf("Dasu mean should exceed FCC mean (sampling bias), ratio %.2f", f.MeanRatio)
	}
	if f.PeakRatio < 0.75 || f.PeakRatio > 1.45 {
		t.Errorf("peaks should be nearly identical across vantages, ratio %.2f", f.PeakRatio)
	}
	if f.MeanRatio < f.PeakRatio {
		t.Errorf("the vantage bias should hit means harder than peaks: mean ×%.2f vs peak ×%.2f", f.MeanRatio, f.PeakRatio)
	}
}

func TestTable01UpgradeExperiment(t *testing.T) {
	t.Parallel()
	rep, err := RunTable01(evalData(t), rng("t1"))
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.(*Table01)
	if f := tab.Average.Fraction(); f < 0.55 || f > 0.9 {
		t.Errorf("average-usage H holds %.1f%%, paper 66.8%%", 100*f)
	}
	if f := tab.Peak.Fraction(); f < 0.55 || f > 0.92 {
		t.Errorf("peak-usage H holds %.1f%%, paper 70.3%%", 100*f)
	}
	if !tab.Average.Sig.Significant() || !tab.Peak.Sig.Significant() {
		t.Errorf("both rows must be significant: avg %v, peak %v", tab.Average, tab.Peak)
	}
}

func TestFig04SlowFast(t *testing.T) {
	t.Parallel()
	rep, err := RunFig04(evalData(t), rng("f4"))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.(*Fig04)
	if f.MeanFastMedian <= f.MeanSlowMedian*1.2 {
		t.Errorf("median mean usage should grow clearly on the fast network: %.0f → %.0f kbps",
			f.MeanSlowMedian/1e3, f.MeanFastMedian/1e3)
	}
	if f.PeakFastMedian <= f.PeakSlowMedian*1.4 {
		t.Errorf("median peak usage should grow strongly: %.0f → %.0f kbps",
			f.PeakSlowMedian/1e3, f.PeakFastMedian/1e3)
	}
}

func TestFig05TierDeltas(t *testing.T) {
	t.Parallel()
	rep, err := RunFig05(evalData(t), rng("f5"))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.(*Fig05)
	// The peak no-BT panel: the slowest populated tier shows a clear
	// positive change.
	peakNoBT := f.Panels[3]
	first := peakNoBT.Rows[0]
	if first.Change.Point <= 0 {
		t.Errorf("slowest tier %s peak change = %v, want positive", first.FromTier, first.Change.Point)
	}
	if first.Change.Lo <= 0 && first.N >= 20 {
		t.Errorf("slowest tier CI should exclude zero with n=%d: [%v, %v]", first.N, first.Change.Lo, first.Change.Hi)
	}
}

func TestTable02CapacityLadder(t *testing.T) {
	t.Parallel()
	rep, err := RunTable02(evalData(t), rng("t2"))
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.(*Table02)
	sigLow, populatedLow := 0, 0
	var fractions []float64
	for _, r := range tab.Dasu {
		if r.Skipped {
			continue
		}
		fractions = append(fractions, r.Result.Fraction())
		if r.Control.Upper() <= 7e6 { // rungs at or below (3.2, 6.4]
			populatedLow++
			if r.Result.Sig.Significant() {
				sigLow++
			}
		}
	}
	if populatedLow < 2 {
		t.Fatalf("only %d populated low rungs", populatedLow)
	}
	if sigLow == 0 {
		t.Errorf("no low-capacity rung significant; paper finds all below 6.4 Mbps significant")
	}
	// Decay: the average fraction over the first half exceeds the last half.
	if len(fractions) >= 4 {
		half := len(fractions) / 2
		lo := mean(fractions[:half])
		hi := mean(fractions[half:])
		if lo <= hi {
			t.Errorf("effect should decay with capacity: low rungs %.3f vs high rungs %.3f", lo, hi)
		}
	}
	// FCC panel: capacity keeps mattering in the US market.
	sigFCC := 0
	for _, r := range tab.FCC {
		if !r.Skipped && r.Result.Sig.Significant() {
			sigFCC++
		}
	}
	if sigFCC < 2 {
		t.Errorf("FCC panel should stay significant across bins, got %d significant rungs", sigFCC)
	}
}

// tailFlattening returns the average log-gain per class doubling over the
// last two transitions of a binned series versus the preceding four.
func tailFlattening(s Series) (tail, mid float64, ok bool) {
	var pts []SeriesPoint
	for _, p := range s.Points {
		if p.N >= 30 && p.Y > 0 {
			pts = append(pts, p)
		}
	}
	if len(pts) < 7 {
		return 0, 0, false
	}
	gain := func(a, b SeriesPoint) float64 { return math.Log(b.Y / a.Y) }
	n := len(pts)
	tail = (gain(pts[n-3], pts[n-2]) + gain(pts[n-2], pts[n-1])) / 2
	for i := n - 7; i < n-3; i++ {
		mid += gain(pts[i], pts[i+1])
	}
	mid /= 4
	return tail, mid, true
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestFig06LongitudinalNull(t *testing.T) {
	t.Parallel()
	rep, err := RunFig06(evalData(t), rng("f6"))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.(*Fig06)
	if len(f.Years) < 3 {
		t.Fatalf("years = %v", f.Years)
	}
	populated, null := 0, 0
	for _, e := range f.YearExperiments {
		if e.Skipped {
			continue
		}
		populated++
		if !e.Result.Sig.Significant() {
			null++
		}
	}
	if populated == 0 {
		t.Fatal("no populated cross-year experiments")
	}
	if float64(null)/float64(populated) < 0.7 {
		t.Errorf("within-class demand should be stable across years: only %d/%d null", null, populated)
	}
}

func TestTable03PriceEffect(t *testing.T) {
	t.Parallel()
	rep, err := RunTable03(evalData(t), rng("t3"))
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.(*Table03)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r.Result.Fraction() <= 0.5 {
			t.Errorf("%v vs %v: H holds %.1f%%, want above chance (paper 63.4%%/72.2%%)",
				r.Control, r.Treatment, 100*r.Result.Fraction())
		}
	}
	sig := 0
	for _, r := range tab.Rows {
		if r.Result.Sig.Significant() {
			sig++
		}
	}
	if sig == 0 {
		t.Error("price effect entirely insignificant; paper finds both rows significant")
	}
}

func TestTable04CaseStudy(t *testing.T) {
	t.Parallel()
	rep, err := RunTable04(evalData(t), rng("t4"))
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.(*Table04)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	byCC := map[string]Table04Row{}
	for _, r := range tab.Rows {
		byCC[r.Country.Code] = r
	}
	// Income-share ordering: BW ≫ SA > US ≈ JP (Table 4: 8.0/3.3/1.3/1.3).
	if !(byCC["BW"].IncomeShare > byCC["SA"].IncomeShare &&
		byCC["SA"].IncomeShare > byCC["US"].IncomeShare) {
		t.Errorf("income-share ordering violated: BW=%.3f SA=%.3f US=%.3f JP=%.3f",
			byCC["BW"].IncomeShare, byCC["SA"].IncomeShare, byCC["US"].IncomeShare, byCC["JP"].IncomeShare)
	}
	if byCC["BW"].IncomeShare < 0.04 {
		t.Errorf("Botswana income share %.3f, paper 8.0%%", byCC["BW"].IncomeShare)
	}
	if byCC["US"].IncomeShare > 0.03 || byCC["JP"].IncomeShare > 0.03 {
		t.Errorf("US/JP income shares should sit near 1.3%%: %.3f, %.3f",
			byCC["US"].IncomeShare, byCC["JP"].IncomeShare)
	}
	// Median capacity ordering.
	if !(byCC["BW"].MedianCapacity < byCC["SA"].MedianCapacity &&
		byCC["SA"].MedianCapacity < byCC["US"].MedianCapacity &&
		byCC["US"].MedianCapacity < byCC["JP"].MedianCapacity) {
		t.Error("median capacity ordering violated")
	}
}

func TestFig07Orderings(t *testing.T) {
	t.Parallel()
	rep, err := RunFig07(evalData(t), rng("f7"))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.(*Fig07)
	if !(f.MedianCapacity["BW"] < f.MedianCapacity["SA"] &&
		f.MedianCapacity["SA"] < f.MedianCapacity["US"] &&
		f.MedianCapacity["US"] < f.MedianCapacity["JP"]) {
		t.Errorf("capacity order violated: %+v", f.MedianCapacity)
	}
	if !(f.MeanUtilization["BW"] > f.MeanUtilization["SA"] &&
		f.MeanUtilization["SA"] > f.MeanUtilization["US"] &&
		f.MeanUtilization["US"] > f.MeanUtilization["JP"]) {
		t.Errorf("utilization order should reverse capacity order: %+v", f.MeanUtilization)
	}
}

func TestFig08UtilizationByTier(t *testing.T) {
	t.Parallel()
	rep, err := RunFig08(evalData(t), rng("f8"))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.(*Fig08)
	// US utilization falls with tier.
	us1, ok1 := f.Group("US", stats.Tier1to8)
	usTop, okTop := f.Group("US", stats.TierOver32)
	if ok1 && okTop && us1.Mean <= usTop.Mean {
		t.Errorf("US utilization should fall with tier: 1-8 %.2f vs >32 %.2f", us1.Mean, usTop.Mean)
	}
	// Expensive markets run hotter within a tier.
	if sa, ok := f.Group("SA", stats.Tier1to8); ok && ok1 {
		if sa.Median <= us1.Median {
			t.Errorf("SA 1-8 median util %.2f should exceed US's %.2f (paper: 60%% vs 43%%)", sa.Median, us1.Median)
		}
	}
	if bw, ok := f.Group("BW", stats.TierSub1); ok {
		if bw.Mean < 0.6 {
			t.Errorf("BW <1 Mbps mean util %.2f, paper ≈0.80", bw.Mean)
		}
		// The paper's comparison point: BW's tier average (≈80%) against
		// the US average peak utilization over ALL users (≈52%).
		p := evalData(t).Panel()
		usAll := p.Where(dataset.ColCountry("US"), dataset.ColVantage(dataset.VantageDasu))
		total := 0.0
		for _, i := range usAll.Idx {
			total += p.PeakUtilization(int(i))
		}
		if usAvg := total / float64(usAll.Len()); bw.Mean <= usAvg {
			t.Errorf("BW tier util %.2f should exceed the US overall average %.2f", bw.Mean, usAvg)
		}
	}
	if jp, ok := f.Group("JP", stats.TierOver32); ok && jp.Mean > 0.5 {
		t.Errorf("JP >32 mean util %.2f, paper ≈0.10", jp.Mean)
	}
}

func TestFig09DemandByTier(t *testing.T) {
	t.Parallel()
	rep, err := RunFig09(evalData(t), rng("f9"))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.(*Fig09)
	// US demand rises with tier even as utilization falls.
	var prev float64 = -1
	var seen int
	for _, tier := range stats.Tiers() {
		if bar, ok := f.Bar("US", tier); ok {
			if prev > 0 && bar.Demand.Point < prev*0.8 {
				t.Errorf("US demand should broadly rise with tier; %v dropped to %.2f Mbps", tier, bar.Demand.Point/1e6)
			}
			prev = bar.Demand.Point
			seen++
		}
	}
	if seen < 3 {
		t.Fatalf("only %d US tiers populated", seen)
	}
	// Within-tier cross-market comparisons.
	if sa, ok := f.Bar("SA", stats.Tier1to8); ok {
		if us, ok2 := f.Bar("US", stats.Tier1to8); ok2 && sa.Demand.Point <= us.Demand.Point {
			t.Errorf("SA 1-8 demand %.2f should exceed US's %.2f (paper: +37%%)",
				sa.Demand.Point/1e6, us.Demand.Point/1e6)
		}
	}
	if jp, ok := f.Bar("JP", stats.TierOver32); ok {
		if us, ok2 := f.Bar("US", stats.TierOver32); ok2 {
			// The paper's +0.83 Mbps gap; at the eval world's ~30 JP users
			// in this tier the mean carries a ±2–3 Mbps CI, so the strict
			// ordering is only enforced for well-populated samples.
			margin := 1.0
			if jp.N < 60 {
				margin = 0.85
			}
			if us.Demand.Point < jp.Demand.Point*margin {
				t.Errorf("US >32 demand %.2f should exceed JP's %.2f (paper: +0.83 Mbps; JP n=%d)",
					us.Demand.Point/1e6, jp.Demand.Point/1e6, jp.N)
			}
		}
	}
}

func TestFig10UpgradeCostDistribution(t *testing.T) {
	t.Parallel()
	rep, err := RunFig10(evalData(t), rng("f10"))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.(*Fig10)
	if f.Slopes["JP"] >= 0.12 || f.Slopes["KR"] >= 0.12 {
		t.Errorf("JP/KR slopes should sit below $0.10: %v, %v", f.Slopes["JP"], f.Slopes["KR"])
	}
	if f.Slopes["US"] < 0.3 || f.Slopes["US"] > 1 {
		t.Errorf("US slope %.2f, paper slightly above $0.50", f.Slopes["US"])
	}
	if f.Slopes["GH"] < 5 || f.Slopes["UG"] < 5 {
		t.Errorf("Ghana/Uganda should sit in the expensive region: %v, %v", f.Slopes["GH"], f.Slopes["UG"])
	}
	if !(f.Callouts["JP"] < f.Callouts["US"] && f.Callouts["US"] < f.Callouts["GH"]) {
		t.Errorf("callout ordering violated: %+v", f.Callouts)
	}
	// Our generated catalogs are cleaner than the real survey (no promos,
	// bundles or tech transitions), so the strong-correlation share runs
	// above the paper's 66%; the shape requirement is "a clear majority
	// strongly correlated, moderate ≥ strong" (see EXPERIMENTS.md).
	if f.StrongShare < 0.45 || f.StrongShare > 0.99 {
		t.Errorf("strong-correlation share %.2f, want a clear majority (paper ≈0.66)", f.StrongShare)
	}
	if f.ModerateShare < f.StrongShare || f.ModerateShare < 0.6 {
		t.Errorf("moderate-correlation share %.2f, paper ≈0.81", f.ModerateShare)
	}
}

func TestTable05RegionalShares(t *testing.T) {
	t.Parallel()
	rep, err := RunTable05(evalData(t), rng("t5"))
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.(*Table05)
	get := func(r market.Region) Table05Row {
		row, ok := tab.Row(r)
		if !ok {
			t.Fatalf("region %v missing", r)
		}
		return row
	}
	africa := get(market.Africa)
	if africa.Over1 < 0.99 {
		t.Errorf("Africa >$1 share = %.2f, paper 100%%", africa.Over1)
	}
	if africa.Over10 < 0.5 {
		t.Errorf("Africa >$10 share = %.2f, paper 74%%", africa.Over10)
	}
	if na := get(market.NorthAmerica); na.Over1 != 0 {
		t.Errorf("North America >$1 share = %.2f, paper 0%%", na.Over1)
	}
	if ad := get(market.AsiaDeveloped); ad.Over1 != 0 {
		t.Errorf("developed Asia >$1 share = %.2f, paper 0%%", ad.Over1)
	}
	if eu := get(market.Europe); eu.Over5 != 0 || eu.Over1 > 0.25 {
		t.Errorf("Europe shares = %.2f/%.2f, paper 10%%/0%%", eu.Over1, eu.Over5)
	}
}

func TestTable06UpgradeCostEffect(t *testing.T) {
	t.Parallel()
	rep, err := RunTable06(evalData(t), rng("t6"))
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.(*Table06)
	directional := 0
	populated := 0
	for _, rows := range [][]Table06Row{tab.WithBT, tab.NoBT} {
		for _, r := range rows {
			if r.Skipped {
				continue
			}
			populated++
			if r.Result.Fraction() > 0.5 {
				directional++
			}
		}
	}
	if populated == 0 {
		t.Fatal("no populated comparisons")
	}
	if float64(directional)/float64(populated) < 0.7 {
		t.Errorf("upgrade-cost effect should be directionally positive: %d/%d", directional, populated)
	}
}

func TestTable07LatencyEffect(t *testing.T) {
	t.Parallel()
	rep, err := RunTable07(evalData(t), rng("t7"))
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.(*Table07)
	populated, sig := 0, 0
	for _, r := range tab.Rows {
		if r.Skipped {
			continue
		}
		populated++
		if r.Result.Fraction() <= 0.5 {
			t.Errorf("%v: H holds %.1f%%, want above chance", r.Treatment, 100*r.Result.Fraction())
		}
		if r.Result.Sig.Significant() {
			sig++
		}
	}
	if populated < 2 {
		t.Fatalf("only %d populated latency bands", populated)
	}
	if sig == 0 {
		t.Error("latency effect entirely insignificant; paper finds every band significant")
	}
}

func TestTable08LossEffect(t *testing.T) {
	t.Parallel()
	rep, err := RunTable08(evalData(t), rng("t8"))
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.(*Table08)
	populated, directional, sig := 0, 0, 0
	for _, r := range tab.Rows {
		if r.Skipped {
			continue
		}
		populated++
		if r.Result.Fraction() > 0.5 {
			directional++
		}
		if r.Result.Sig.Significant() {
			sig++
		}
	}
	if populated < 2 {
		t.Fatalf("only %d populated loss comparisons", populated)
	}
	if directional < populated-1 {
		t.Errorf("loss effect should be directionally positive: %d/%d", directional, populated)
	}
	if sig == 0 {
		t.Error("loss effect entirely insignificant; paper finds every row significant")
	}
}

func TestFig11IndiaLatency(t *testing.T) {
	t.Parallel()
	rep, err := RunFig11(evalData(t), rng("f11"))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.(*Fig11)
	if f.FracIndiaOver100ms < 0.85 {
		t.Errorf("%.0f%% of Indian users above 100 ms, paper: nearly all", 100*f.FracIndiaOver100ms)
	}
	if f.MedianIndiaNDT < 2*f.MedianRest {
		t.Errorf("India median RTT %.0f ms should dwarf the rest's %.0f ms",
			f.MedianIndiaNDT*1000, f.MedianRest*1000)
	}
	if !f.IndiaVsUSSkipped {
		if f.IndiaVsUS.Fraction() <= 0.5 {
			t.Errorf("matched US-vs-India: %.1f%%, paper 62%% (US higher)", 100*f.IndiaVsUS.Fraction())
		}
	}
}

func TestFig12IndiaLoss(t *testing.T) {
	t.Parallel()
	rep, err := RunFig12(evalData(t), rng("f12"))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.(*Fig12)
	if f.MedianIndia < 3*f.MedianRest {
		t.Errorf("India median loss %.3g%% should dwarf the rest's %.3g%%", f.MedianIndia*100, f.MedianRest*100)
	}
	if f.FracIndiaOver1 <= f.FracRestOver1 {
		t.Errorf("India's >1%% loss share %.2f should exceed the rest's %.2f", f.FracIndiaOver1, f.FracRestOver1)
	}
}

// TestAblationQoEOffKillsQualityEffects is the ground-truth recovery check:
// in a world with the quality→demand arrow severed, the latency experiment
// must lose its significance.
func TestAblationQoEOffKillsQualityEffects(t *testing.T) {
	t.Parallel()
	w, err := synth.Build(synth.Config{
		Seed: 777, Users: 1500, FCCUsers: 50, Days: 2,
		SwitchTarget: 20, MinPerCountry: 15, DisableQoE: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunTable07(&w.Data, rng("ablate"))
	if err != nil {
		t.Skipf("latency experiment unavailable in ablated world: %v", err)
	}
	tab := rep.(*Table07)
	sig := 0
	populated := 0
	for _, r := range tab.Rows {
		if r.Skipped {
			continue
		}
		populated++
		if r.Result.Sig.Significant() {
			sig++
		}
	}
	if populated == 0 {
		t.Skip("no populated bands in ablated world")
	}
	if sig > populated/2 {
		t.Errorf("ablated world still shows latency effects in %d/%d bands", sig, populated)
	}
}
