package traffic

import (
	"math"
	"testing"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

func archSummary(t *testing.T, arch Archetype, capBytes unit.ByteSize, q Quality, seed uint64) Summary {
	t.Helper()
	g := &Generator{
		Capacity: unit.MbpsOf(10),
		Quality:  q,
		Profile: Profile{
			NeedMbps:       3,
			SessionsPerDay: DefaultSessionsPerDay,
			Archetype:      arch,
			MonthlyCap:     capBytes,
		},
	}
	series, err := g.Generate(3, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := series.Summarize(GatewayMask)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func avgMetric(t *testing.T, n int, f func(seed uint64) float64) float64 {
	t.Helper()
	total := 0.0
	for i := 0; i < n; i++ {
		total += f(uint64(300 + i))
	}
	return total / float64(n)
}

func TestArchetypeSharesAndMixesConsistent(t *testing.T) {
	shareSum := 0.0
	for _, a := range Archetypes() {
		shareSum += ArchetypeShares[a]
		mix := mixFor(a)
		mixSum := 0.0
		for _, w := range mix {
			mixSum += w
		}
		if math.Abs(mixSum-1) > 1e-9 {
			t.Errorf("%v mix sums to %v", a, mixSum)
		}
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Errorf("archetype shares sum to %v", shareSum)
	}
	// Population-weighted mix equals the Balanced mix (calibration
	// preservation).
	var weighted appMix
	for _, a := range Archetypes() {
		mix := mixFor(a)
		for i := range mix {
			weighted[i] += ArchetypeShares[a] * mix[i]
		}
	}
	ref := mixFor(Balanced)
	for i := range ref {
		if math.Abs(weighted[i]-ref[i]) > 0.015 {
			t.Errorf("weighted mix[%d] = %.3f, balanced = %.3f", i, weighted[i], ref[i])
		}
	}
	if mixFor(Archetype(99)) != mixFor(Balanced) {
		t.Error("unknown archetype should fall back to Balanced")
	}
}

func TestArchetypeNames(t *testing.T) {
	for a, want := range map[Archetype]string{
		Balanced: "balanced", Browser: "browser", Streamer: "streamer",
		Downloader: "downloader", Gamer: "gamer",
	} {
		if a.String() != want {
			t.Errorf("%d = %q", a, a.String())
		}
	}
	if Archetype(99).String() != "Archetype(99)" {
		t.Error("unknown archetype label")
	}
}

func TestStreamersOutConsumeBrowsers(t *testing.T) {
	q := goodQuality()
	streamer := avgMetric(t, 5, func(s uint64) float64 { return float64(archSummary(t, Streamer, 0, q, s).Mean) })
	browser := avgMetric(t, 5, func(s uint64) float64 { return float64(archSummary(t, Browser, 0, q, s).Mean) })
	if streamer <= browser*1.3 {
		t.Errorf("streamers should clearly out-consume browsers: %v vs %v", streamer, browser)
	}
}

func TestGamerLatencySensitivity(t *testing.T) {
	slow := Quality{RTT: 0.35, Loss: 0.0002}
	// At 350 ms, gamers suppress demand much harder than balanced
	// households relative to their own clean-line baselines.
	rel := func(a Archetype) float64 {
		bad := avgMetric(t, 5, func(s uint64) float64 { return float64(archSummary(t, a, 0, slow, s).Mean) })
		good := avgMetric(t, 5, func(s uint64) float64 { return float64(archSummary(t, a, 0, goodQuality(), s).Mean) })
		return bad / good
	}
	gamer := rel(Gamer)
	balanced := rel(Balanced)
	if gamer >= balanced-0.05 {
		t.Errorf("gamers should be more latency-suppressed: gamer ratio %.2f vs balanced %.2f", gamer, balanced)
	}
}

func TestArchetypeQoEBounds(t *testing.T) {
	for _, a := range Archetypes() {
		for _, q := range []Quality{
			{RTT: 0.02, Loss: 0.0001}, {RTT: 0.5, Loss: 0.01}, {RTT: 2, Loss: 0.1},
		} {
			f := archetypeQoE(a, q)
			if f <= 0 || f > 1 {
				t.Errorf("%v archetypeQoE(%+v) = %v", a, q, f)
			}
		}
	}
	if archetypeQoE(Balanced, Quality{RTT: 2, Loss: 0.1}) != 1 {
		t.Error("balanced households carry no extra sensitivity")
	}
}

func TestMonthlyCapSuppressesUsage(t *testing.T) {
	q := goodQuality()
	// A 10 GB/month cap is tight against an unlimited household's ~2-3
	// GB/day appetite.
	capped := avgMetric(t, 5, func(s uint64) float64 { return float64(archSummary(t, Balanced, 10*unit.GB, q, s).Mean) })
	unlimited := avgMetric(t, 5, func(s uint64) float64 { return float64(archSummary(t, Balanced, 0, q, s).Mean) })
	if capped >= unlimited*0.6 {
		t.Errorf("a tight cap should clearly suppress mean demand: capped %v vs unlimited %v", capped, unlimited)
	}
	// Projected consumption under the cap lands near the allowance, with
	// the partial-compliance overage real panels show.
	monthly := capped / 8 * 86400 * 30
	if monthly > float64(10*unit.GB)*1.8 {
		t.Errorf("capped household projects %.1f GB/month against a 10 GB cap", monthly/1e9)
	}
	// A generous cap changes nothing.
	loose := avgMetric(t, 5, func(s uint64) float64 { return float64(archSummary(t, Balanced, 2*unit.TB, q, s).Mean) })
	if math.Abs(loose-unlimited) > 0.15*unlimited {
		t.Errorf("a loose cap should be inert: %v vs %v", loose, unlimited)
	}
}

func TestCapFloorPreventsShutoff(t *testing.T) {
	// Even an absurdly small cap leaves a trickle (capFactor floor).
	sum := archSummary(t, Balanced, 100*unit.MB, goodQuality(), 1)
	if sum.Mean <= 0 {
		t.Error("capped household went fully silent")
	}
}
