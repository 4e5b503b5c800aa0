package experiments

import (
	"errors"
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
type Table06Row struct {
	Control   market.UpgradeCostGroup
	Treatment market.UpgradeCostGroup
	Result    core.Result
	Skipped   bool
}

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
		fmt.Fprintf(&b, "    %-16s %-16s %10s %12s %7s\n", "Control", "Treatment", "% H holds", "p-value", "pairs")
		for _, r := range rows {
			if r.Skipped {
				fmt.Fprintf(&b, "    %-16s %-16s %10s %12s %7s\n", r.Control, r.Treatment, "-", "(too few)", "-")
				continue
			}
			star := ""
			if !r.Result.Sig.Significant() {
				star = "*"
			}
			fmt.Fprintf(&b, "    %-16s %-16s %9.1f%%%s %12s %7d\n",
				r.Control, r.Treatment, 100*r.Result.Fraction(), star,
				formatP(r.Result.PValue()), r.Result.Pairs)
		}
	}
	render("a: average demand w/ BitTorrent", t.WithBT)
	render("b: average demand w/o BitTorrent", t.NoBT)
	return b.String()
}

// RunTable06 evaluates the upgrade-cost experiment.
func RunTable06(d *dataset.Dataset, rng *randx.Source) (Report, error) {
	v := dasuView(d, 0)
	p := v.P
	groups := map[market.UpgradeCostGroup]dataset.View{}
	for _, i := range v.Idx {
		g := market.GroupOfUpgradeCost(unit.PerMbps(p.UpgradeCost[i]))
		gv := groups[g]
		gv.P = p
		gv.Idx = append(gv.Idx, i)
		groups[g] = gv
	}
	// Matching on capacity, quality and access price isolates the
	// upgrade-cost arrow from the access-price one.
	m := core.Matcher{Confounders: []core.Confounder{
		core.ConfounderCapacity(), core.ConfounderRTT(), core.ConfounderLoss(),
		core.ConfounderAccessPrice(),
	}}
	comparisons := []struct {
		control, treatment market.UpgradeCostGroup
	}{
		{market.UpgradeCheap, market.UpgradeMid},
		{market.UpgradeMid, market.UpgradeExpensive},
	}
	run := func(metric dataset.Column, label string) ([]Table06Row, error) {
		var rows []Table06Row
		populated := 0
		for i, cmp := range comparisons {
			exp := core.Experiment{
				Name:      fmt.Sprintf("%s: %v vs %v", label, cmp.control, cmp.treatment),
				Treatment: groups[cmp.treatment],
				Control:   groups[cmp.control],
				Matcher:   m,
				Outcome:   metric,
				MinPairs:  MinGroup,
			}
			res, err := exp.Run(rng.SplitN(label, i))
			row := Table06Row{Control: cmp.control, Treatment: cmp.treatment}
			switch {
			case errors.Is(err, core.ErrTooFewPairs):
				row.Skipped = true
			case err != nil:
				return nil, err
			default:
				row.Result = res
				populated++
			}
			rows = append(rows, row)
		}
		if populated == 0 {
			return nil, fmt.Errorf("table06 %s: no populated comparisons", label)
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
