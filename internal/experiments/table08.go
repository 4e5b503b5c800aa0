package experiments

import (
	"fmt"
	"strings"

	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
)

// Table08 reproduces Table 8: the packet-loss natural experiment. Controls
// are the lossy bands (0.1–1% and 1–15%); treatments are the clean bands;
// H states that lower loss yields higher average demand. Paper: 55.4%
// (p≈5.9e-6), 53.4%, 58.9% (p≈2.2e-5) and 53.8%, all significant, with the
// strongest effects against the >1% controls.
type Table08 struct {
	Rows []Table08Row
}

// Table08Row is one control/treatment band comparison.
type Table08Row = Comparison[band]

// ID implements Report.
func (t *Table08) ID() string { return "Table 8" }

// Title implements Report.
func (t *Table08) Title() string {
	return "Packet-loss experiment: does lower loss raise average demand?"
}

// Render implements Report.
func (t *Table08) Render() string {
	var b strings.Builder
	b.WriteString(header(t.ID(), t.Title()))
	fmt.Fprintf(&b, "  %-18s %-20s %s\n", "Control", "Treatment", resultColumns)
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-18s %-20s %s\n", r.Control, r.Treatment, resultCells(r.Result, r.Skipped))
	}
	return b.String()
}

// RunTable08 evaluates the loss experiment.
func RunTable08(d *dataset.Dataset, rng *randx.Source) (Report, error) {
	v := dasuView(d, 0)
	clean1 := lossBand(0, 0.0001)
	clean2 := lossBand(0.0001, 0.001)
	lossy1 := lossBand(0.001, 0.01)
	lossy2 := lossBand(0.01, 0.15)
	// Matching on capacity, latency and both market price metrics isolates
	// loss from the market-development confounders it travels with.
	m := core.Matcher{Confounders: []core.Confounder{
		core.ConfounderCapacity(), core.ConfounderRTT(),
		core.ConfounderAccessPrice(), core.ConfounderUpgradeCost(),
	}}
	rows, err := matchRungs([]Table08Row{
		{Control: lossy1, Treatment: clean1},
		{Control: lossy1, Treatment: clean2},
		{Control: lossy2, Treatment: clean1},
		{Control: lossy2, Treatment: clean2},
	}, func(b band) dataset.View { return b.of(v, v.P.Loss) }, m, dataset.MeanUsageNoBT,
		func(i int, r Table08Row) (string, *randx.Source) {
			return fmt.Sprintf("%v vs %v", r.Control, r.Treatment), rng.SplitN("loss", i)
		})
	if err != nil {
		return nil, fmt.Errorf("table08: %w", err)
	}
	return &Table08{Rows: rows}, nil
}
