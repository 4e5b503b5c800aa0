package synth

import (
	"testing"

	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/traffic"
)

// crossLine is one access line both measurement models are run on.
type crossLine struct {
	plan market.Plan
	q    traffic.Quality
}

// crossAgreement runs measureFast and measureNDT on every line and returns
// the share of lines whose measured capacity lands in the same
// 100 kbps × 2^k class, and each model's median capacity/plan ratio.
func crossAgreement(t *testing.T, lines []crossLine) (sameClass, medFast, medNDT float64) {
	t.Helper()
	same := 0
	fast := make([]float64, len(lines))
	ndt := make([]float64, len(lines))
	for i, l := range lines {
		rng := randx.New(99).SplitN("line", i)
		f := measureFast(l.plan, l.q, rng.Split("fast"))
		n, err := measureNDT(l.plan, l.q, rng.Split("ndt"))
		if err != nil {
			t.Fatal(err)
		}
		if stats.ClassOf(f.down) == stats.ClassOf(n.down) {
			same++
		}
		fast[i] = float64(f.down) / float64(l.plan.Down)
		ndt[i] = float64(n.down) / float64(l.plan.Down)
	}
	var err error
	if medFast, err = stats.Median(fast); err != nil {
		t.Fatal(err)
	}
	if medNDT, err = stats.Median(ndt); err != nil {
		t.Fatal(err)
	}
	return float64(same) / float64(len(lines)), medFast, medNDT
}

// TestMeasureFastMatchesNDTOnCleanShortLines cross-validates the default
// measurement model against the packet-level one on the same (plan,
// quality) lines, drawn the way users' lines are: a market, one of its
// plans, then drawQuality. On clean short lines the two agree; on all
// lines they differ by design (measureFast models the maximum over a
// 23-month panel, measureNDT the best of three 8-second runs, which stays
// ramp-dominated on long-RTT lines).
func TestMeasureFastMatchesNDTOnCleanShortLines(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level measurement of 250 lines; skipped with -short")
	}
	profiles := market.World()
	rng := randx.New(17)
	catalogs := market.BuildAllCatalogs(profiles, rng.Split("catalogs"))
	var clean, all []crossLine
	for i := 0; len(clean) < 100 || len(all) < 150; i++ {
		r := rng.SplitN("line", i)
		prof := profiles[r.IntN(len(profiles))]
		plans := catalogs[prof.Country.Code].Plans
		plan := plans[r.IntN(len(plans))]
		q, _ := drawQuality(prof, plan, r.Split("quality"))
		l := crossLine{plan, q}
		if len(all) < 150 {
			all = append(all, l)
		}
		// Clean short lines, where one TCP flow saturates the line inside
		// an 8-second run (the regime TestMeasureNDTMode names).
		if len(clean) < 100 && q.Loss < 0.0003 && q.RTT < 0.055 && plan.Down.Mbps() < 20 {
			clean = append(clean, l)
		}
	}

	same, medFast, medNDT := crossAgreement(t, clean)
	t.Logf("clean short lines: %.0f%% same class, median capacity/plan %.3f (fast) vs %.3f (packet-level)",
		100*same, medFast, medNDT)
	if same < 0.9 {
		t.Errorf("clean short lines: only %.0f%% in the same capacity class, want at least 90%%", 100*same)
	}
	if medFast < 0.9 || medFast > 0.96 || medNDT < 0.85 || medNDT > 0.91 {
		t.Errorf("clean short lines: median capacity/plan %.3f (fast) and %.3f (packet-level), want [0.90, 0.96] and [0.85, 0.91]",
			medFast, medNDT)
	}

	same, medFast, medNDT = crossAgreement(t, all)
	t.Logf("all lines: %.0f%% same class, median capacity/plan %.3f (fast) vs %.3f (packet-level)",
		100*same, medFast, medNDT)
	if same > 0.5 || medNDT > 0.75 {
		t.Errorf("all lines: %.0f%% in the same class and packet-level median %.3f; the models should differ outside the clean regime",
			100*same, medNDT)
	}
}
