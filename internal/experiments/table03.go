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

// Table03 reproduces Table 3: the price-of-access natural experiment.
// Users are grouped by the monthly cost of broadband access in their
// market (≤$25, $25–60, >$60 USD PPP); otherwise-similar users are matched
// across groups and H states that users in more expensive markets impose
// higher peak demand. The paper: 63.4% (p ≈ 8.9e-22) for cheap-vs-mid and
// 72.2% (p ≈ 5.4e-10) for cheap-vs-expensive.
type Table03 struct {
	Rows []Table03Row
}

// Table03Row is one control/treatment group comparison.
type Table03Row struct {
	Control   market.AccessPriceGroup
	Treatment market.AccessPriceGroup
	Result    core.Result
}

// ID implements Report.
func (t *Table03) ID() string { return "Table 3" }

// Title implements Report.
func (t *Table03) Title() string {
	return "Price-of-access experiment: do expensive markets show higher demand?"
}

// Render implements Report.
func (t *Table03) Render() string {
	var b strings.Builder
	b.WriteString(header(t.ID(), t.Title()))
	fmt.Fprintf(&b, "  %-14s %-14s %s\n", "Control", "Treatment", resultColumns)
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-14s %-14s %s\n", r.Control, r.Treatment, resultCells(r.Result, false))
	}
	return b.String()
}

// RunTable03 evaluates the access-price experiment.
func RunTable03(d *dataset.Dataset, rng *randx.Source) (Report, error) {
	v := dasuView(d, 0)
	groups := groupBy(v, func(i int32) market.AccessPriceGroup {
		return market.GroupOfAccessPrice(unit.USD(v.P.AccessPrice[i]))
	})
	// Matching on capacity and connection quality isolates the price arrow.
	m := core.Matcher{Confounders: []core.Confounder{
		core.ConfounderCapacity(), core.ConfounderRTT(), core.ConfounderLoss(),
	}}
	t := &Table03{}
	for _, cmp := range []struct {
		control, treatment market.AccessPriceGroup
	}{
		{market.AccessCheap, market.AccessMid},
		{market.AccessCheap, market.AccessExpensive},
	} {
		exp := core.Experiment{
			Name:      fmt.Sprintf("%v vs %v", cmp.control, cmp.treatment),
			Treatment: groups[cmp.treatment],
			Control:   groups[cmp.control],
			Matcher:   m,
			Outcome:   dataset.PeakUsageNoBT,
		}
		res, err := exp.Run(rng.Split(cmp.treatment.String()))
		if err != nil {
			return nil, fmt.Errorf("table03 %v: %w", cmp.treatment, err)
		}
		t.Rows = append(t.Rows, Table03Row{Control: cmp.control, Treatment: cmp.treatment, Result: res})
	}
	return t, nil
}
