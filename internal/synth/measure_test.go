package synth

import (
	"fmt"
	"sync"
	"testing"

	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/netsim"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/traffic"
	"github.com/nwca/broadband/internal/unit"
)

// measureNDT is the packet-level reference for measureFast's capacity: the
// best download rate of three independent 8-second NDT runs over the line.
// It estimates a different quantity than measureFast, the best of a few
// short tests rather than the maximum over a 23-month panel, so the two
// agree only where one TCP flow saturates the line inside one run
// (TestMeasureModelsPerRegime).
func measureNDT(plan market.Plan, q traffic.Quality, rng *randx.Source) (unit.Bitrate, error) {
	// Wireless and satellite lines lose in bursts, wireline i.i.d.
	loss := netsim.LossModel{Rate: q.Loss}
	if plan.Tech == market.Satellite || plan.Tech == market.FixedWireless {
		loss = netsim.BurstyLoss(q.Loss)
	}
	oneWay := q.RTT / 2
	line := netsim.AccessLine{
		Down: netsim.LinkConfig{Rate: plan.Down, Delay: oneWay, Loss: loss, Name: "down"},
		Up:   netsim.LinkConfig{Rate: plan.Up, Delay: oneWay, Loss: loss, Name: "up"},
	}
	best := unit.KbpsOf(16) // measureFast's floor
	for i := 0; i < 3; i++ {
		res, err := netsim.RunNDT(line, netsim.NDTConfig{Duration: 8, SkipUp: true}, rng.SplitN("ndt", i))
		if err != nil {
			return 0, err
		}
		best = max(best, res.DownloadRate)
	}
	return best, nil
}

// regime is one cell of the measurement grid: RTT band × loss band × plan
// tier, each an index into the edges below.
type regime struct{ rtt, loss, tier int }

var (
	regimeRTT  = []float64{0.055, 0.120, 0.300} // seconds
	regimeLoss = []float64{0.0003, 0.003}
	regimeTier = []float64{20} // Mbps
	// cleanRegime is where one TCP flow saturates the line inside an
	// 8-second run: RTT < 55 ms, loss < 0.03%, plan < 20 Mbps.
	cleanRegime = regime{}
)

// band is the index of the first edge above v.
func band(v float64, edges []float64) int {
	i := 0
	for i < len(edges) && v >= edges[i] {
		i++
	}
	return i
}

// gridCells lists every cell, RTT band slowest and plan tier fastest.
func gridCells() []regime {
	var cells []regime
	for r := 0; r <= len(regimeRTT); r++ {
		for l := 0; l <= len(regimeLoss); l++ {
			for p := 0; p <= len(regimeTier); p++ {
				cells = append(cells, regime{r, l, p})
			}
		}
	}
	return cells
}

func regimeOf(plan market.Plan, q traffic.Quality) regime {
	return regime{band(q.RTT, regimeRTT), band(float64(q.Loss), regimeLoss), band(plan.Down.Mbps(), regimeTier)}
}

func (r regime) String() string {
	label := func(i int, edges []float64, scale float64, unit string) string {
		switch {
		case i == 0:
			return fmt.Sprintf("<%g%s", edges[0]*scale, unit)
		case i == len(edges):
			return fmt.Sprintf(">=%g%s", edges[i-1]*scale, unit)
		}
		return fmt.Sprintf("%g-%g%s", edges[i-1]*scale, edges[i]*scale, unit)
	}
	return fmt.Sprintf("rtt %s loss %s plan %s",
		label(r.rtt, regimeRTT, 1000, "ms"), label(r.loss, regimeLoss, 100, "%"), label(r.tier, regimeTier, 1, "Mbps"))
}

const (
	cleanCap = 50   // lines kept in the clean cell
	cellCap  = 20   // lines kept in every other cell, the least the n >= 20 rule reads
	draws    = 1500 // lines drawn to fill the cells
)

// crossLine is one access line both measurement models are run on.
type crossLine struct {
	plan market.Plan
	q    traffic.Quality
}

// crossMeasure is one line's capacity under each model.
type crossMeasure struct{ fast, ndt unit.Bitrate }

// crossLines draws lines the way users' lines are drawn (a market, one of
// its plans, then drawQuality) and files them by grid cell. Each cell keeps
// its first lines in draw order, up to a cap that bounds the packet-level
// cost: the 20-line cells of 32–128 Mbps lines at RTT < 55 ms cost about a
// second each.
var crossLines = sync.OnceValue(func() map[regime][]crossLine {
	profiles := market.World()
	rng := randx.New(17)
	catalogs := market.BuildAllCatalogs(profiles, rng.Split("catalogs"))
	cells := map[regime][]crossLine{}
	for i := 0; i < draws; i++ {
		r := rng.SplitN("line", i)
		prof := profiles[r.IntN(len(profiles))]
		plans := catalogs[prof.Country.Code].Plans
		plan := plans[r.IntN(len(plans))]
		q, _ := drawQuality(prof, plan, r.Split("quality"))
		c := regimeOf(plan, q)
		if n := len(cells[c]); n < cellCap || c == cleanRegime && n < cleanCap {
			cells[c] = append(cells[c], crossLine{plan, q})
		}
	}
	return cells
})

var (
	crossMu       sync.Mutex
	crossMeasured = map[regime][]crossMeasure{}
)

// measureCell runs both models on every line of cell c, once per test
// binary: the tests below read the same packet-level runs.
func measureCell(t *testing.T, c regime) []crossMeasure {
	t.Helper()
	crossMu.Lock()
	defer crossMu.Unlock()
	if m, ok := crossMeasured[c]; ok {
		return m
	}
	lines := crossLines()[c]
	m := make([]crossMeasure, len(lines))
	for j, l := range lines {
		rng := randx.New(99).SplitN("line", j)
		n, err := measureNDT(l.plan, l.q, rng.Split("ndt"))
		if err != nil {
			t.Fatal(err)
		}
		m[j] = crossMeasure{measureFast(l.plan, l.q, rng.Split("fast")).down, n}
	}
	crossMeasured[c] = m
	return m
}

// agreement is the share of lines whose two capacities land in the same
// 100 kbps × 2^k class, and each model's median capacity/plan ratio.
func agreement(lines []crossLine, m []crossMeasure) (share, medFast, medNDT float64) {
	same := 0
	fast := make([]float64, len(lines))
	ndt := make([]float64, len(lines))
	for j, l := range lines {
		if stats.ClassOf(m[j].fast) == stats.ClassOf(m[j].ndt) {
			same++
		}
		fast[j] = float64(m[j].fast) / float64(l.plan.Down)
		ndt[j] = float64(m[j].ndt) / float64(l.plan.Down)
	}
	medFast, _ = stats.Median(fast)
	medNDT, _ = stats.Median(ndt)
	return float64(same) / float64(len(lines)), medFast, medNDT
}

// TestMeasureNDTMode checks the packet-level reference on its own: its
// capacity is at most the plan rate on every line of the grid, and at
// least 0.55 × plan on clean short lines, where one TCP flow saturates the
// line inside an 8-second run. (Longer RTTs leave the test
// ramp-dominated — a fidelity of the TCP model, not a bug.)
func TestMeasureNDTMode(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level measurement of about 270 lines; skipped with -short")
	}
	for _, c := range gridCells() {
		lines := crossLines()[c]
		for j, m := range measureCell(t, c) {
			l := lines[j]
			if m.ndt > l.plan.Down {
				t.Errorf("%v: packet-level measured %v above plan %v", c, m.ndt, l.plan.Down)
			}
			if c == cleanRegime && m.ndt.Mbps() < 0.55*l.plan.Down.Mbps() {
				t.Errorf("clean line measured %v on plan %v (loss %v, rtt %v), want at least 0.55 × plan",
					m.ndt, l.plan.Down, l.q.Loss, l.q.RTT)
			}
		}
	}
}

// TestMeasureFastMatchesNDTOnCleanShortLines cross-validates the default
// measurement model against the packet-level reference on the clean cell
// of the grid (RTT < 55 ms, loss < 0.03%, plan < 20 Mbps), where the two
// agree.
func TestMeasureFastMatchesNDTOnCleanShortLines(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level measurement of 50 lines; skipped with -short")
	}
	lines := crossLines()[cleanRegime]
	share, medFast, medNDT := agreement(lines, measureCell(t, cleanRegime))
	t.Logf("clean short lines: n=%d  same class %.1f%%  median capacity/plan %.3f (fast) vs %.3f (packet-level)",
		len(lines), 100*share, medFast, medNDT)
	if len(lines) < cleanCap || share < 0.9 {
		t.Errorf("%.1f%% of %d lines in the same capacity class, want at least 90%% of %d",
			100*share, len(lines), cleanCap)
	}
	if medFast < 0.9 || medFast > 0.96 || medNDT < 0.85 || medNDT > 0.91 {
		t.Errorf("median capacity/plan %.3f (fast) and %.3f (packet-level), want [0.90, 0.96] and [0.85, 0.91]",
			medFast, medNDT)
	}
}

// TestMeasureModelsPerRegime runs both models in every cell of the RTT ×
// loss × plan grid and logs each cell's same-class share and median
// capacity/plan ratios. Outside the clean cell
// (TestMeasureFastMatchesNDTOnCleanShortLines) the two must not agree: the
// reference mostly reads far below measureFast, which models the maximum
// over a 23-month panel rather than the best of three 8-second runs.
func TestMeasureModelsPerRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level measurement of about 270 lines; skipped with -short")
	}
	for _, c := range gridCells() {
		lines := crossLines()[c]
		if len(lines) == 0 {
			continue
		}
		t.Run(c.String(), func(t *testing.T) {
			m := measureCell(t, c)
			for j, l := range lines {
				if m[j].fast > l.plan.Down {
					t.Errorf("fast model measured %v on plan %v, want at most the plan", m[j].fast, l.plan.Down)
				}
			}
			share, medFast, medNDT := agreement(lines, m)
			t.Logf("n=%d  same class %.1f%%  median capacity/plan %.3f (fast) vs %.3f (packet-level)",
				len(lines), 100*share, medFast, medNDT)
			if c != cleanRegime && len(lines) >= 20 && share >= 0.9 {
				t.Errorf("%.1f%% of %d lines in the same capacity class; only the clean regime should agree",
					100*share, len(lines))
			}
		})
	}
}
