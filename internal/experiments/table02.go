package experiments

import (
	"fmt"
	"strings"

	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/unit"
)

// Table02 reproduces Table 2: the matched-pair capacity experiment. Users
// in adjacent capacity classes are matched on connection quality (latency,
// loss) and market prices (access price, upgrade cost); H states the
// higher-capacity user imposes higher peak demand. The paper's shape: for
// the global Dasu panel the effect is strong at low capacities (75.2% in
// the lowest bins) and decays to chance above ≈12.8 Mbps; for the US-only
// FCC panel every bin stays significant.
type Table02 struct {
	Dasu []Table02Row
	FCC  []Table02Row
	// DasuFDR and FCCFDR mark, per populated row, whether it survives the
	// Benjamini–Hochberg correction at q=0.05 across its panel's family —
	// a multiplicity guard the paper leaves implicit (it runs every rung
	// at raw α=0.05).
	DasuFDR []bool
	FCCFDR  []bool
}

// Table02Row is one control/treatment class comparison.
type Table02Row = Comparison[stats.CapacityClass]

// ID implements Report.
func (t *Table02) ID() string { return "Table 2" }

// Title implements Report.
func (t *Table02) Title() string {
	return "Matched-pair experiment: does higher capacity raise peak demand?"
}

// Render implements Report.
func (t *Table02) Render() string {
	var b strings.Builder
	b.WriteString(header(t.ID(), t.Title()))
	render := func(name string, rows []Table02Row, fdr []bool) {
		fmt.Fprintf(&b, "  %s data\n", name)
		fmt.Fprintf(&b, "    %-22s %-22s %s %5s\n", "Control", "Treatment", resultColumns, "FDR")
		fi := 0
		for _, r := range rows {
			fdrMark := "-"
			if !r.Skipped && fi < len(fdr) {
				if fdr[fi] {
					fdrMark = "yes"
				} else {
					fdrMark = "no"
				}
				fi++
			}
			fmt.Fprintf(&b, "    %-22s %-22s %s %5s\n", r.Control, r.Treatment, resultCells(r.Result, r.Skipped), fdrMark)
		}
	}
	render("Dasu", t.Dasu, t.DasuFDR)
	render("FCC", t.FCC, t.FCCFDR)
	return b.String()
}

// RunTable02 evaluates the capacity matching experiment for both panels.
func RunTable02(d *dataset.Dataset, rng *randx.Source) (Report, error) {
	p := d.Panel()
	dasu := dasuView(d, 0)
	fcc := p.Where(dataset.ColVantage(dataset.VantageGateway))
	t := &Table02{}
	var err error
	// The paper's Dasu rows span (0.1,0.2] → (51.2,102.4]; its FCC rows
	// start at (0.4,0.8].
	t.Dasu, err = capacityLadder(dasu, stats.ClassOf(unit.KbpsOf(150)), 9, quadMatcher(), rng.Split("dasu"))
	if err != nil {
		return nil, fmt.Errorf("table02 dasu: %w", err)
	}
	t.FCC, err = capacityLadder(fcc, stats.ClassOf(unit.KbpsOf(600)), 7, qualityOnlyMatcher(), rng.Split("fcc"))
	if err != nil {
		return nil, fmt.Errorf("table02 fcc: %w", err)
	}
	if t.DasuFDR, err = ladderFDR(t.Dasu); err != nil {
		return nil, err
	}
	if t.FCCFDR, err = ladderFDR(t.FCC); err != nil {
		return nil, err
	}
	return t, nil
}

// ladderFDR applies the Benjamini–Hochberg correction across a panel's
// populated rungs.
func ladderFDR(rows []Table02Row) ([]bool, error) {
	var pvals []float64
	for _, r := range rows {
		if !r.Skipped {
			pvals = append(pvals, r.Result.PValue())
		}
	}
	if len(pvals) == 0 {
		return nil, nil
	}
	return stats.BenjaminiHochberg(pvals)
}

// quadMatcher matches on the full confounder set used for cross-market
// comparisons.
func quadMatcher() core.Matcher {
	return core.Matcher{Confounders: []core.Confounder{
		core.ConfounderRTT(), core.ConfounderLoss(),
		core.ConfounderAccessPrice(), core.ConfounderUpgradeCost(),
	}}
}

// qualityOnlyMatcher matches on connection quality only — appropriate
// within a single market (the FCC panel is US-only, so prices are constant).
func qualityOnlyMatcher() core.Matcher {
	return core.Matcher{Confounders: []core.Confounder{
		core.ConfounderRTT(), core.ConfounderLoss(),
	}}
}

// capacityLadder runs the adjacent-class experiment for `steps` rungs
// starting at class `first`.
func capacityLadder(v dataset.View, first stats.CapacityClass, steps int, m core.Matcher, rng *randx.Source) ([]Table02Row, error) {
	classes := byClass(v)
	rows := make([]Table02Row, steps)
	for i := range rows {
		k := first + stats.CapacityClass(i)
		rows[i] = Table02Row{Control: k, Treatment: k + 1}
	}
	return matchRungs(rows, func(k stats.CapacityClass) dataset.View { return classes[k] }, m, dataset.PeakUsageNoBT,
		func(_ int, r Table02Row) (string, *randx.Source) {
			return fmt.Sprintf("%v vs %v", r.Control, r.Treatment), rng.SplitN("ladder", int(r.Control))
		})
}
