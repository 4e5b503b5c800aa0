package experiments

import (
	"fmt"
	"strings"

	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
)

// Table07 reproduces Table 7: the latency natural experiment. The control
// group sits in the problematic (512, 2048] ms band; each treatment group
// is a faster band; H states that lower latency yields higher peak demand.
// Paper: 63.5% / 63.4% / 59.4% / 56.3% (all significant) for bands
// (0,64], (64,128], (128,256] and (256,512] ms.
type Table07 struct {
	Control band
	Rows    []Table07Row
}

// Table07Row is one treatment band.
type Table07Row struct {
	Treatment band
	Result    core.Result
	Skipped   bool
}

// ID implements Report.
func (t *Table07) ID() string { return "Table 7" }

// Title implements Report.
func (t *Table07) Title() string {
	return "Latency experiment: does lower latency raise peak demand?"
}

// Render implements Report.
func (t *Table07) Render() string {
	var b strings.Builder
	b.WriteString(header(t.ID(), t.Title()))
	fmt.Fprintf(&b, "  control group: %v\n", t.Control)
	fmt.Fprintf(&b, "  %-18s %s\n", "Treatment", resultColumns)
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-18s %s\n", r.Treatment, resultCells(r.Result, r.Skipped))
	}
	return b.String()
}

// RunTable07 evaluates the latency experiment.
func RunTable07(d *dataset.Dataset, rng *randx.Source) (Report, error) {
	v := dasuView(d, 0)
	control := latencyBand(0.512, 2.048)
	var rungs []Comparison[band]
	for _, treatment := range []band{
		latencyBand(0, 0.064), latencyBand(0.064, 0.128), latencyBand(0.128, 0.256), latencyBand(0.256, 0.512),
	} {
		rungs = append(rungs, Comparison[band]{Control: control, Treatment: treatment})
	}
	// Matching on capacity, loss and both market price metrics isolates
	// latency from the market-development confounders it travels with.
	m := core.Matcher{Confounders: []core.Confounder{
		core.ConfounderCapacity(), core.ConfounderLoss(),
		core.ConfounderAccessPrice(), core.ConfounderUpgradeCost(),
	}}
	rungs, err := matchRungs(rungs, func(b band) dataset.View { return b.of(v, v.P.RTT) }, m, dataset.PeakUsageNoBT,
		func(i int, r Comparison[band]) (string, *randx.Source) {
			return fmt.Sprintf("%v vs %v", r.Control, r.Treatment), rng.SplitN("latency", i)
		})
	if err != nil {
		return nil, fmt.Errorf("table07: %w", err)
	}
	t := &Table07{Control: control}
	for _, r := range rungs {
		t.Rows = append(t.Rows, Table07Row{Treatment: r.Treatment, Result: r.Result, Skipped: r.Skipped})
	}
	return t, nil
}
