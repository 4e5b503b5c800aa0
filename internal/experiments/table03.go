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

// Table03Row is one control/treatment group comparison; Skipped marks a
// price stratum too thin to match in this world.
type Table03Row = Comparison[market.AccessPriceGroup]

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
		fmt.Fprintf(&b, "  %-14s %-14s %s\n", r.Control, r.Treatment, resultCells(r.Result, r.Skipped))
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
	rows, err := matchRungs([]Table03Row{
		{Control: market.AccessCheap, Treatment: market.AccessMid},
		{Control: market.AccessCheap, Treatment: market.AccessExpensive},
	}, func(g market.AccessPriceGroup) dataset.View { return groups[g] }, m, dataset.PeakUsageNoBT,
		func(_ int, r Table03Row) (string, *randx.Source) {
			return fmt.Sprintf("%v vs %v", r.Control, r.Treatment), rng.Split(r.Treatment.String())
		})
	if err != nil {
		return nil, fmt.Errorf("table03: %w", err)
	}
	return &Table03{Rows: rows}, nil
}
