package traffic

import (
	"math"
	"testing"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

func goodQuality() Quality { return Quality{RTT: 0.04, Loss: 0.0002} }

func genSummary(t *testing.T, capMbps, need float64, q Quality, bt bool, seed uint64) Summary {
	t.Helper()
	g := &Generator{
		Capacity: unit.MbpsOf(capMbps),
		Quality:  q,
		Profile: Profile{
			NeedMbps:         need,
			SessionsPerDay:   DefaultSessionsPerDay,
			BTUser:           bt,
			BTSessionsPerDay: 3,
		},
	}
	series, err := g.Generate(3, randx.New(seed).Split("gen"))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := series.Summarize(GatewayMask)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// avgOver averages a summary metric over several seeds to tame stochastic
// variation in shape assertions.
func avgOver(t *testing.T, n int, f func(seed uint64) float64) float64 {
	t.Helper()
	total := 0.0
	for i := 0; i < n; i++ {
		total += f(uint64(1000 + i))
	}
	return total / float64(n)
}

func TestGenerateBasicInvariants(t *testing.T) {
	g := &Generator{
		Capacity: unit.MbpsOf(10),
		Quality:  goodQuality(),
		Profile:  Profile{NeedMbps: 3, SessionsPerDay: 50},
	}
	series, err := g.Generate(2, randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Counters) != 2*86400/30 {
		t.Fatalf("series has %d intervals, want %d", len(series.Counters), 2*86400/30)
	}
	if len(series.BTActive) != len(series.Counters) {
		t.Fatal("BTActive length mismatch")
	}
	capPerInterval := unit.VolumeAt(g.Capacity, 30)
	nonZero := 0
	for i, c := range series.Counters {
		if c < 0 {
			t.Fatalf("negative counter at %d", i)
		}
		if c > capPerInterval+1 {
			t.Fatalf("counter %d exceeds link capacity: %v > %v", i, c, capPerInterval)
		}
		if c > 0 {
			nonZero++
		}
		if series.BTActive[i] {
			t.Errorf("non-BT user has BT-active interval %d", i)
		}
	}
	if nonZero == 0 {
		t.Fatal("series is entirely idle")
	}
	sum, err := series.Summarize(GatewayMask)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mean <= 0 || sum.Peak < sum.Mean {
		t.Errorf("summary out of order: mean=%v peak=%v", sum.Mean, sum.Peak)
	}
	if sum.Max < sum.Peak {
		t.Errorf("max %v below p95 %v", sum.Max, sum.Peak)
	}
}

func TestGenerateValidation(t *testing.T) {
	g := &Generator{Capacity: 0}
	if _, err := g.Generate(1, randx.New(1)); err == nil {
		t.Error("zero capacity should error")
	}
	g = &Generator{Capacity: unit.Mbps}
	if _, err := g.Generate(0, randx.New(1)); err == nil {
		t.Error("zero days should error")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	run := func() Summary {
		g := &Generator{Capacity: unit.MbpsOf(8), Quality: goodQuality(), Profile: Profile{NeedMbps: 3}}
		s, err := g.Generate(1, randx.New(99).Split("d"))
		if err != nil {
			t.Fatal(err)
		}
		sum, _ := s.Summarize(GatewayMask)
		return sum
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("generation not deterministic: %+v vs %+v", a, b)
	}
}

func TestUsageGrowsWithCapacity(t *testing.T) {
	// Ground truth of Fig. 2 / Table 2: same need, growing capacity →
	// growing demand.
	mean1 := avgOver(t, 5, func(s uint64) float64 { return float64(genSummary(t, 1, 3, goodQuality(), false, s).Mean) })
	mean8 := avgOver(t, 5, func(s uint64) float64 { return float64(genSummary(t, 8, 3, goodQuality(), false, s).Mean) })
	peak1 := avgOver(t, 5, func(s uint64) float64 { return float64(genSummary(t, 1, 3, goodQuality(), false, s).Peak) })
	peak8 := avgOver(t, 5, func(s uint64) float64 { return float64(genSummary(t, 8, 3, goodQuality(), false, s).Peak) })
	if mean8 <= mean1 {
		t.Errorf("mean demand should grow with capacity: 1 Mbps→%v, 8 Mbps→%v", mean1, mean8)
	}
	if peak8 <= 2*peak1 {
		t.Errorf("peak demand should grow strongly from 1→8 Mbps: %v → %v", peak1, peak8)
	}
}

func TestDiminishingReturns(t *testing.T) {
	// The relative gain from doubling capacity must shrink at high
	// capacities (the paper's ~10 Mbps knee).
	m := func(capMbps float64) float64 {
		return avgOver(t, 6, func(s uint64) float64 {
			return float64(genSummary(t, capMbps, 3, goodQuality(), false, s).Mean)
		})
	}
	m2, m4 := m(2), m(4)
	m32, m64 := m(32), m(64)
	lowGain := m4 / m2
	highGain := m64 / m32
	if lowGain <= highGain {
		t.Errorf("diminishing returns violated: 2→4 Mbps gain %.3f, 32→64 Mbps gain %.3f", lowGain, highGain)
	}
	if highGain > 1.25 {
		t.Errorf("doubling an already-fast line should barely move mean demand, got ×%.3f", highGain)
	}
}

func TestUtilizationFallsWithCapacity(t *testing.T) {
	// Peak utilization (p95/capacity) must fall as capacity rises for the
	// same need (Fig. 8a's shape).
	util := func(capMbps float64) float64 {
		return avgOver(t, 5, func(s uint64) float64 {
			sum := genSummary(t, capMbps, 2.5, goodQuality(), false, s)
			return float64(sum.PeakNoBT) / float64(unit.MbpsOf(capMbps))
		})
	}
	u05, u8, u64 := util(0.5), util(8), util(64)
	if !(u05 > u8 && u8 > u64) {
		t.Errorf("utilization ordering violated: 0.5→%.2f 8→%.2f 64→%.2f", u05, u8, u64)
	}
	if u05 < 0.5 {
		t.Errorf("sub-1 Mbps line should run hot at peak, got %.2f", u05)
	}
	if u64 > 0.35 {
		t.Errorf("64 Mbps line should be cold at peak for a 2.5 Mbps-need household, got %.2f", u64)
	}
}

func TestQoESuppressionThresholds(t *testing.T) {
	good := QoEFactor(goodQuality())
	if good < 0.97 {
		t.Errorf("clean line QoE = %v, want ≈1", good)
	}
	highLat := QoEFactor(Quality{RTT: 0.6, Loss: 0.0002})
	vhighLat := QoEFactor(Quality{RTT: 2.0, Loss: 0.0002})
	if !(highLat < 0.93 && vhighLat < highLat) {
		t.Errorf("latency suppression too weak: 600ms→%v 2s→%v", highLat, vhighLat)
	}
	someLoss := QoEFactor(Quality{RTT: 0.04, Loss: 0.002})
	highLoss := QoEFactor(Quality{RTT: 0.04, Loss: 0.03})
	if !(someLoss < 0.99 && highLoss < someLoss) {
		t.Errorf("loss suppression too weak: 0.2%%→%v 3%%→%v", someLoss, highLoss)
	}
	if QoEFactor(Quality{RTT: 5, Loss: 0.5}) < 0.3 {
		t.Error("QoE floor breached")
	}
}

func TestBadQualityLowersUsage(t *testing.T) {
	// Ground truth of Tables 7/8: same capacity and need, degraded line →
	// lower demand (behavioral + mechanical TCP ceiling).
	clean := avgOver(t, 6, func(s uint64) float64 {
		return float64(genSummary(t, 6, 3, goodQuality(), false, s).PeakNoBT)
	})
	lossy := avgOver(t, 6, func(s uint64) float64 {
		return float64(genSummary(t, 6, 3, Quality{RTT: 0.04, Loss: 0.025}, false, s).PeakNoBT)
	})
	slow := avgOver(t, 6, func(s uint64) float64 {
		return float64(genSummary(t, 6, 3, Quality{RTT: 0.9, Loss: 0.0002}, false, s).PeakNoBT)
	})
	if lossy >= clean {
		t.Errorf("2.5%% loss should lower peak demand: clean=%v lossy=%v", clean, lossy)
	}
	if slow >= clean {
		t.Errorf("900 ms RTT should lower peak demand: clean=%v slow=%v", clean, slow)
	}
}

func TestBitTorrentRaisesUsageAndIsMasked(t *testing.T) {
	bt := genSummary(t, 10, 3, goodQuality(), true, 42)
	if bt.Mean <= bt.MeanNoBT {
		t.Errorf("including BT must raise mean: %v vs %v", bt.Mean, bt.MeanNoBT)
	}
	// The no-BT metrics of a BT user should be in the ballpark of a
	// non-BT user's overall metrics (the paper's Sec. 2.1 validation).
	plain := avgOver(t, 5, func(s uint64) float64 { return float64(genSummary(t, 10, 3, goodQuality(), false, s).Mean) })
	noBT := avgOver(t, 5, func(s uint64) float64 { return float64(genSummary(t, 10, 3, goodQuality(), true, s).MeanNoBT) })
	ratio := noBT / plain
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("no-BT demand of BT users should resemble non-BT users: ratio %.2f", ratio)
	}
}

func TestDasuMaskBiasesMeanNotPeak(t *testing.T) {
	// Fig. 3's explanation: end-host sampling is biased toward busy hours,
	// raising measured mean; the p95 is dominated by busy hours either way.
	g := &Generator{Capacity: unit.MbpsOf(10), Quality: goodQuality(), Profile: Profile{NeedMbps: 3}}
	var meanRatio, peakRatio float64
	const n = 6
	for i := 0; i < n; i++ {
		series, err := g.Generate(3, randx.New(uint64(200+i)))
		if err != nil {
			t.Fatal(err)
		}
		gw, err := series.Summarize(GatewayMask)
		if err != nil {
			t.Fatal(err)
		}
		dasu, err := series.Summarize(DasuMask)
		if err != nil {
			t.Fatal(err)
		}
		meanRatio += float64(dasu.Mean) / float64(gw.Mean)
		peakRatio += float64(dasu.Peak) / float64(gw.Peak)
	}
	meanRatio /= n
	peakRatio /= n
	if meanRatio < 1.1 {
		t.Errorf("Dasu-mask mean should exceed gateway mean, ratio %.2f", meanRatio)
	}
	if peakRatio < 0.85 || peakRatio > 1.35 {
		t.Errorf("Dasu-mask peak should approximate gateway peak, ratio %.2f", peakRatio)
	}
}

func TestActivityProfile(t *testing.T) {
	// Normalized to mean 1 over the day.
	sum := 0.0
	for i := 0; i < 240; i++ {
		sum += Activity(24 * float64(i) / 240)
	}
	if avg := sum / 240; math.Abs(avg-1) > 0.02 {
		t.Errorf("Activity average = %v, want ≈1", avg)
	}
	// Evening dominates night.
	if Activity(21) < 2*Activity(4) {
		t.Errorf("evening %.2f should dwarf night %.2f", Activity(21), Activity(4))
	}
	// Periodicity and negative-hour handling.
	if math.Abs(Activity(25)-Activity(1)) > 1e-12 || math.Abs(Activity(-3)-Activity(21)) > 1e-12 {
		t.Error("Activity is not 24h-periodic")
	}
}

func TestFeasibleRate(t *testing.T) {
	capacity := unit.MbpsOf(50)
	pristine := Quality{RTT: 0.04, Loss: 1e-5} // Mathis ≈ 112 Mbps, above the line
	// Pristine line, uncapped flow: capacity-limited.
	if r := FeasibleRate(capacity, pristine, 0); r != capacity {
		t.Errorf("uncapped pristine rate = %v", r)
	}
	// Typical low loss (0.02%) still Mathis-limits a single fat flow — the
	// realistic per-connection ceiling on fast lines.
	if r := FeasibleRate(capacity, goodQuality(), 0); r >= capacity || r < unit.MbpsOf(10) {
		t.Errorf("typical-loss single-flow ceiling = %v, want 10–50 Mbps", r)
	}
	// Flow cap binds.
	if r := FeasibleRate(capacity, pristine, unit.MbpsOf(3)); r != unit.MbpsOf(3) {
		t.Errorf("capped rate = %v", r)
	}
	// Lossy long path: Mathis binds below capacity.
	r := FeasibleRate(capacity, Quality{RTT: 0.5, Loss: 0.02}, 0)
	if r >= capacity {
		t.Errorf("Mathis should bind on a bad line, got %v", r)
	}
	if r < unit.KbpsOf(8) {
		t.Errorf("feasible rate fell below the floor: %v", r)
	}
	// Floor.
	if r := FeasibleRate(unit.KbpsOf(4), Quality{RTT: 3, Loss: 0.3}, 0); r != unit.KbpsOf(8) {
		t.Errorf("floor = %v, want 8 kbps", r)
	}
}

func TestAppTypeStrings(t *testing.T) {
	for app, want := range map[AppType]string{
		AppWeb: "web", AppVideo: "video", AppBulk: "bulk", AppBackground: "background", AppTorrent: "torrent",
	} {
		if app.String() != want {
			t.Errorf("%d = %q", app, app.String())
		}
	}
}

func TestSummarizeErrors(t *testing.T) {
	s := &Series{}
	if _, err := s.Summarize(GatewayMask); err == nil {
		t.Error("empty series should error")
	}
	// Five minutes from midnight: the Dasu mask observes none of it.
	s = &Series{Counters: make([]unit.ByteSize, 10), BTActive: make([]bool, 10)}
	if _, err := s.Summarize(DasuMask); err == nil {
		t.Error("all-masked series should error")
	}
}
