package experiments

import (
	"fmt"
	"strings"

	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// Table06 reproduces Table 6: the cost-of-increasing-capacity natural
// experiment. Markets are banded by their upgrade-cost slope (≤$0.50,
// $0.50–1, >$1 per Mbps); H states that users facing costlier upgrades
// impose higher average demand on the service they keep. The paper: with
// BitTorrent 53.8% (p=0.0072) and 58.7% (p=0.011); without BitTorrent
// 52.2% (n.s.) and 56.3% (p=0.027) — directionally positive, weaker than
// the access-price effect.
type Table06 struct {
	WithBT []Table06Row
	NoBT   []Table06Row
}

// Table06Row is one band comparison.
type Table06Row = Comparison[market.UpgradeCostGroup]

// ID implements Report.
func (t *Table06) ID() string { return "Table 6" }

// Title implements Report.
func (t *Table06) Title() string {
	return "Upgrade-cost experiment: do costly-upgrade markets show higher demand?"
}

// Render implements Report.
func (t *Table06) Render() string {
	var b strings.Builder
	b.WriteString(header(t.ID(), t.Title()))
	render := func(name string, rows []Table06Row) {
		fmt.Fprintf(&b, "  (%s)\n", name)
		fmt.Fprintf(&b, "    %-16s %-16s %s\n", "Control", "Treatment", resultColumns)
		for _, r := range rows {
			fmt.Fprintf(&b, "    %-16s %-16s %s\n", r.Control, r.Treatment, resultCells(r.Result, r.Skipped))
		}
	}
	render("a: average demand w/ BitTorrent", t.WithBT)
	render("b: average demand w/o BitTorrent", t.NoBT)
	return b.String()
}

// RunTable06 evaluates the upgrade-cost experiment.
func RunTable06(d *dataset.Dataset, rng *randx.Source) (Report, error) {
	v := dasuView(d, 0)
	groups := groupBy(v, func(i int32) market.UpgradeCostGroup {
		return market.GroupOfUpgradeCost(unit.PerMbps(v.P.UpgradeCost[i]))
	})
	// Matching on capacity, quality and access price isolates the
	// upgrade-cost arrow from the access-price one.
	m := core.Matcher{Confounders: []core.Confounder{
		core.ConfounderCapacity(), core.ConfounderRTT(), core.ConfounderLoss(),
		core.ConfounderAccessPrice(),
	}}
	run := func(metric dataset.Column, label string) ([]Table06Row, error) {
		rows, err := matchRungs([]Table06Row{
			{Control: market.UpgradeCheap, Treatment: market.UpgradeMid},
			{Control: market.UpgradeMid, Treatment: market.UpgradeExpensive},
		}, func(g market.UpgradeCostGroup) dataset.View { return groups[g] }, m, metric,
			func(i int, r Table06Row) (string, *randx.Source) {
				return fmt.Sprintf("%s: %v vs %v", label, r.Control, r.Treatment), rng.SplitN(label, i)
			})
		if err != nil {
			return nil, fmt.Errorf("table06 %s: %w", label, err)
		}
		return rows, nil
	}
	t := &Table06{}
	var err error
	if t.WithBT, err = run(dataset.MeanUsage, "withbt"); err != nil {
		return nil, err
	}
	if t.NoBT, err = run(dataset.MeanUsageNoBT, "nobt"); err != nil {
		return nil, err
	}
	return t, nil
}
