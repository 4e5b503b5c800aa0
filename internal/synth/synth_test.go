package synth

import (
	"sync"
	"testing"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/stats"
)

// testWorld is a medium world shared by read-only tests.
var (
	testWorldOnce sync.Once
	testWorldVal  *World
	testWorldErr  error
)

func testWorld(t *testing.T) *World {
	t.Helper()
	testWorldOnce.Do(func() {
		testWorldVal, testWorldErr = Build(Config{
			Seed: 15, Users: 1200, FCCUsers: 250, Days: 2,
			SwitchTarget: 150, MinPerCountry: 8,
		})
	})
	if testWorldErr != nil {
		t.Fatal(testWorldErr)
	}
	return testWorldVal
}

func median(t *testing.T, xs []float64) float64 {
	t.Helper()
	m, err := stats.Median(xs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildValidates(t *testing.T) {
	w := testWorld(t)
	if err := w.Data.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(w.Data.Plans) < 500 {
		t.Errorf("survey has %d plans, want survey scale (paper: 1523)", len(w.Data.Plans))
	}
	if len(w.Data.Markets) < 60 {
		t.Errorf("only %d markets", len(w.Data.Markets))
	}
	if len(w.Data.Switches) != 150 {
		t.Errorf("switches = %d, want the configured 150", len(w.Data.Switches))
	}
	for _, u := range w.Data.Users {
		if _, ok := w.Truth[u.ID]; !ok {
			t.Fatalf("user %d lacks ground truth", u.ID)
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	cfg := Config{Seed: 5, Users: 150, FCCUsers: 30, Days: 1, SwitchTarget: 20}
	a, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Data.Users) != len(b.Data.Users) {
		t.Fatalf("user counts differ: %d vs %d", len(a.Data.Users), len(b.Data.Users))
	}
	for i := range a.Data.Users {
		if a.Data.Users[i] != b.Data.Users[i] {
			t.Fatalf("user %d differs:\n%+v\n%+v", i, a.Data.Users[i], b.Data.Users[i])
		}
	}
	if len(a.Data.Switches) != len(b.Data.Switches) {
		t.Fatalf("switch counts differ")
	}
	for i := range a.Data.Switches {
		if a.Data.Switches[i] != b.Data.Switches[i] {
			t.Fatalf("switch %d differs", i)
		}
	}
}

func TestSeedChangesWorld(t *testing.T) {
	a, err := Build(Config{Seed: 1, Users: 100, FCCUsers: 10, Days: 1, SwitchTarget: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Config{Seed: 2, Users: 100, FCCUsers: 10, Days: 1, SwitchTarget: 5})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	n := len(a.Data.Users)
	if len(b.Data.Users) < n {
		n = len(b.Data.Users)
	}
	for i := 0; i < n; i++ {
		if a.Data.Users[i].Capacity == b.Data.Users[i].Capacity {
			same++
		}
	}
	if same > n/2 {
		t.Errorf("different seeds produced %d/%d identical capacities", same, n)
	}
}

func TestGlobalCapacityDistributionMatchesPaper(t *testing.T) {
	// Fig. 1a: median ≈7.4 Mbps, IQR from ≈3.1 to ≈17.4 Mbps. We require
	// the same regime, not the digits.
	w := testWorld(t)
	p := w.Data.Panel()
	caps := p.Where(dataset.ColVantage(dataset.VantageDasu)).Gather(p.Capacity)
	for i := range caps {
		caps[i] /= 1e6
	}
	med := median(t, caps)
	if med < 3.5 || med > 14 {
		t.Errorf("global median capacity = %.2f Mbps, want the paper's ≈7.4 regime", med)
	}
	q1, _ := stats.Quantile(caps, 0.25)
	q3, _ := stats.Quantile(caps, 0.75)
	if q1 < 0.4 || q1 > 6 || q3 < 8 || q3 > 35 {
		t.Errorf("IQR = [%.2f, %.2f], want roughly [3, 17]", q1, q3)
	}
}

func TestCaseStudyMarketShapes(t *testing.T) {
	// Table 4 and Fig. 7: median capacities ordered BW < SA < US < JP and
	// within the paper's ranges.
	w := testWorld(t)
	p := w.Data.Panel()
	medCap := func(cc string) float64 {
		v := p.Where(dataset.ColCountry(cc), dataset.ColVantage(dataset.VantageDasu))
		if v.Len() < 5 {
			t.Fatalf("%s has only %d users", cc, v.Len())
		}
		caps := v.Gather(p.Capacity)
		for i := range caps {
			caps[i] /= 1e6
		}
		return median(t, caps)
	}
	bw, sa, us, jp := medCap("BW"), medCap("SA"), medCap("US"), medCap("JP")
	if !(bw < sa && sa < us && us < jp) {
		t.Errorf("median capacity order violated: BW=%.2f SA=%.2f US=%.2f JP=%.2f", bw, sa, us, jp)
	}
	if bw > 1 {
		t.Errorf("Botswana median = %.2f, want ≈0.5", bw)
	}
	if sa < 1.5 || sa > 7 {
		t.Errorf("Saudi median = %.2f, want ≈4", sa)
	}
	if us < 9 || us > 24 {
		t.Errorf("US median = %.2f, want ≈17.6", us)
	}
	if jp < 18 || jp > 45 {
		t.Errorf("Japan median = %.2f, want ≈29", jp)
	}
}

func TestUtilizationReversesCapacityOrder(t *testing.T) {
	// Fig. 7b: peak utilization order is exactly the reverse of the
	// capacity order (Botswana hottest, Japan coldest).
	w := testWorld(t)
	p := w.Data.Panel()
	meanUtil := func(cc string) float64 {
		v := p.Where(dataset.ColCountry(cc), dataset.ColVantage(dataset.VantageDasu))
		total := 0.0
		for _, i := range v.Idx {
			total += p.PeakUtilization(int(i))
		}
		return total / float64(v.Len())
	}
	bw, sa, us, jp := meanUtil("BW"), meanUtil("SA"), meanUtil("US"), meanUtil("JP")
	if !(bw > sa && sa > us && us > jp) {
		t.Errorf("utilization order violated: BW=%.2f SA=%.2f US=%.2f JP=%.2f", bw, sa, us, jp)
	}
	if bw < 0.6 {
		t.Errorf("Botswana mean peak utilization = %.2f, want the ≈0.8 regime", bw)
	}
	if jp > 0.55 {
		t.Errorf("Japan mean peak utilization = %.2f, want well below the US", jp)
	}
}

func TestSwitchPanelDirection(t *testing.T) {
	// Table 1's regime: upgrades raise demand in roughly two-thirds of
	// pairs — well above chance, well below certainty.
	w := testWorld(t)
	meanUp, peakUp := 0, 0
	for _, s := range w.Data.Switches {
		if s.After.MeanNoBT > s.Before.MeanNoBT {
			meanUp++
		}
		if s.After.PeakNoBT > s.Before.PeakNoBT {
			peakUp++
		}
	}
	n := len(w.Data.Switches)
	fMean := float64(meanUp) / float64(n)
	fPeak := float64(peakUp) / float64(n)
	if fMean < 0.55 || fMean > 0.85 {
		t.Errorf("mean-demand increase fraction = %.2f, want the paper's ≈0.67 regime", fMean)
	}
	if fPeak < 0.55 || fPeak > 0.9 {
		t.Errorf("peak-demand increase fraction = %.2f, want the paper's ≈0.70 regime", fPeak)
	}
}

func TestLongitudinalCohorts(t *testing.T) {
	w := testWorld(t)
	var sizes []int
	for _, y := range []int{2011, 2012, 2013} {
		n := w.Data.Panel().Where(dataset.ColYear(y), dataset.ColVantage(dataset.VantageDasu)).Len()
		if n == 0 {
			t.Fatalf("no users in %d", y)
		}
		sizes = append(sizes, n)
	}
	if !(sizes[0] < sizes[1] && sizes[1] < sizes[2]) {
		t.Errorf("cohorts should grow year over year: %v", sizes)
	}
}

func TestGatewayPanel(t *testing.T) {
	w := testWorld(t)
	p := w.Data.Panel()
	fcc := p.Where(dataset.ColVantage(dataset.VantageGateway))
	if fcc.Len() < 200 {
		t.Fatalf("gateway panel has %d users, want ≈250", fcc.Len())
	}
	for _, i := range fcc.Idx {
		if cc := p.Countries.Value(p.Country[i]); cc != "US" {
			t.Fatalf("gateway user outside the US: %s", cc)
		}
		if p.UsesBT[i] {
			t.Fatal("gateway users must not be BT-flagged")
		}
		if p.Year[i] != 2013 {
			t.Fatalf("gateway user in year %d", p.Year[i])
		}
	}
}

func TestIndiaQualityProfile(t *testing.T) {
	// Sec. 7 / Figs. 11–12: India's latency and loss distributions sit far
	// above the rest of the population.
	w := testWorld(t)
	p := w.Data.Panel()
	india := p.Where(dataset.ColCountry("IN"))
	rest := p.Where(dataset.ColNotCountry("IN"), dataset.ColVantage(dataset.VantageDasu))
	medRTT := func(v dataset.View) float64 { return median(t, v.Gather(p.RTT)) }
	medLoss := func(v dataset.View) float64 { return median(t, v.Gather(p.Loss)) }
	if rIN, rRest := medRTT(india), medRTT(rest); rIN < 2*rRest || rIN < 0.1 {
		t.Errorf("India median RTT %.0f ms should dwarf the rest's %.0f ms", rIN*1000, rRest*1000)
	}
	if lIN, lRest := medLoss(india), medLoss(rest); lIN < 3*lRest {
		t.Errorf("India median loss %.3f%% should dwarf the rest's %.3f%%", lIN*100, lRest*100)
	}
	// Nearly every Indian user above 100 ms (Fig. 11).
	over := 0
	for _, i := range india.Idx {
		if p.RTT[i] > 0.1 {
			over++
		}
	}
	if frac := float64(over) / float64(india.Len()); frac < 0.85 {
		t.Errorf("only %.0f%% of Indian users above 100 ms, want nearly all", 100*frac)
	}
	// WebRTT tracks but exceeds the NDT RTT.
	for _, i := range india.Idx[:min(10, india.Len())] {
		if p.WebRTT[i] <= p.RTT[i] {
			t.Errorf("user %d WebRTT %v not above RTT %v", p.ID[i], p.WebRTT[i], p.RTT[i])
		}
	}
}

func TestDisableQoEAblation(t *testing.T) {
	// In the ablation world, truth QoE is pinned to 1 and bad-quality users
	// are no longer suppressed relative to the causal world.
	cfg := Config{Seed: 31, Users: 300, FCCUsers: 20, Days: 1, SwitchTarget: 10}
	causal, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableQoE = true
	ablated, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id, gt := range ablated.Truth {
		if gt.QoE != 1 {
			t.Fatalf("ablated world user %d has QoE %v", id, gt.QoE)
		}
	}
	// Average peak demand of high-RTT users must rise once the arrow is cut.
	avgPeakBad := func(w *World) (float64, int) {
		total, n := 0.0, 0
		for _, u := range w.Data.Users {
			if u.RTT > 0.5 {
				total += float64(u.Usage.PeakNoBT)
				n++
			}
		}
		if n == 0 {
			return 0, 0
		}
		return total / float64(n), n
	}
	a, na := avgPeakBad(causal)
	b, nb := avgPeakBad(ablated)
	if na < 5 || nb < 5 {
		t.Skipf("too few high-RTT users (%d, %d)", na, nb)
	}
	if b <= a {
		t.Errorf("cutting the QoE arrow should raise bad-line demand: causal=%v ablated=%v", a, b)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
