package experiments

import (
	"errors"
	"fmt"
	"strings"

	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
)

// lossBand is one of the paper's packet-loss bins (fractions).
type lossBand struct {
	Lo, Hi float64
}

func (b lossBand) String() string {
	return fmt.Sprintf("(%.3g%%, %.3g%%]", b.Lo*100, b.Hi*100)
}

func (b lossBand) contains(l float64) bool { return l > b.Lo && l <= b.Hi }

// Table08 reproduces Table 8: the packet-loss natural experiment. Controls
// are the lossy bands (0.1–1% and 1–15%); treatments are the clean bands;
// H states that lower loss yields higher average demand. Paper: 55.4%
// (p≈5.9e-6), 53.4%, 58.9% (p≈2.2e-5) and 53.8%, all significant, with the
// strongest effects against the >1% controls.
type Table08 struct {
	Rows []Table08Row
}

// Table08Row is one control/treatment band comparison.
type Table08Row struct {
	Control   lossBand
	Treatment lossBand
	Result    core.Result
	Skipped   bool
}

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
	fmt.Fprintf(&b, "  %-18s %-20s %10s %12s %7s\n", "Control", "Treatment", "% H holds", "p-value", "pairs")
	for _, r := range t.Rows {
		if r.Skipped {
			fmt.Fprintf(&b, "  %-18s %-20s %10s %12s %7s\n", r.Control, r.Treatment, "-", "(too few)", "-")
			continue
		}
		star := ""
		if !r.Result.Sig.Significant() {
			star = "*"
		}
		fmt.Fprintf(&b, "  %-18s %-20s %9.1f%%%s %12s %7d\n",
			r.Control, r.Treatment, 100*r.Result.Fraction(), star,
			formatP(r.Result.PValue()), r.Result.Pairs)
	}
	return b.String()
}

// RunTable08 evaluates the loss experiment.
func RunTable08(d *dataset.Dataset, rng *randx.Source) (Report, error) {
	v := dasuView(d, 0)
	clean1 := lossBand{0, 0.0001}
	clean2 := lossBand{0.0001, 0.001}
	lossy1 := lossBand{0.001, 0.01}
	lossy2 := lossBand{0.01, 0.15}
	comparisons := []struct{ control, treatment lossBand }{
		{lossy1, clean1},
		{lossy1, clean2},
		{lossy2, clean1},
		{lossy2, clean2},
	}
	inBand := func(b lossBand) dataset.View {
		var idx []int32
		for _, i := range v.Idx {
			if b.contains(v.P.Loss[i]) {
				idx = append(idx, i)
			}
		}
		return dataset.View{P: v.P, Idx: idx}
	}
	// Matching on capacity, latency and both market price metrics isolates
	// loss from the market-development confounders it travels with.
	m := core.Matcher{Confounders: []core.Confounder{
		core.ConfounderCapacity(), core.ConfounderRTT(),
		core.ConfounderAccessPrice(), core.ConfounderUpgradeCost(),
	}}
	t := &Table08{}
	populated := 0
	for i, cmp := range comparisons {
		exp := core.Experiment{
			Name:      fmt.Sprintf("%v vs %v", cmp.control, cmp.treatment),
			Treatment: inBand(cmp.treatment),
			Control:   inBand(cmp.control),
			Matcher:   m,
			Outcome:   dataset.MeanUsageNoBT,
			MinPairs:  MinGroup,
		}
		res, err := exp.Run(rng.SplitN("loss", i))
		row := Table08Row{Control: cmp.control, Treatment: cmp.treatment}
		switch {
		case errors.Is(err, core.ErrTooFewPairs):
			row.Skipped = true
		case err != nil:
			return nil, err
		default:
			row.Result = res
			populated++
		}
		t.Rows = append(t.Rows, row)
	}
	if populated == 0 {
		return nil, fmt.Errorf("table08: no comparison matched enough pairs")
	}
	return t, nil
}
