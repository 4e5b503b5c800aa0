package experiments

import (
	"errors"
	"fmt"
	"strings"

	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
)

// latencyBand is one of the paper's exponential latency bins (seconds).
type latencyBand struct {
	Lo, Hi float64
}

func (b latencyBand) String() string {
	return fmt.Sprintf("(%.0f, %.0f] ms", b.Lo*1000, b.Hi*1000)
}

func (b latencyBand) contains(rtt float64) bool { return rtt > b.Lo && rtt <= b.Hi }

// Table07 reproduces Table 7: the latency natural experiment. The control
// group sits in the problematic (512, 2048] ms band; each treatment group
// is a faster band; H states that lower latency yields higher peak demand.
// Paper: 63.5% / 63.4% / 59.4% / 56.3% (all significant) for bands
// (0,64], (64,128], (128,256] and (256,512] ms.
type Table07 struct {
	Control latencyBand
	Rows    []Table07Row
}

// Table07Row is one treatment band.
type Table07Row struct {
	Treatment latencyBand
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
	fmt.Fprintf(&b, "  %-18s %10s %12s %7s\n", "Treatment", "% H holds", "p-value", "pairs")
	for _, r := range t.Rows {
		if r.Skipped {
			fmt.Fprintf(&b, "  %-18s %10s %12s %7s\n", r.Treatment, "-", "(too few)", "-")
			continue
		}
		star := ""
		if !r.Result.Sig.Significant() {
			star = "*"
		}
		fmt.Fprintf(&b, "  %-18s %9.1f%%%s %12s %7d\n",
			r.Treatment, 100*r.Result.Fraction(), star, formatP(r.Result.PValue()), r.Result.Pairs)
	}
	return b.String()
}

// RunTable07 evaluates the latency experiment.
func RunTable07(d *dataset.Dataset, rng *randx.Source) (Report, error) {
	v := dasuView(d, 0)
	control := latencyBand{0.512, 2.048}
	treatments := []latencyBand{
		{0, 0.064}, {0.064, 0.128}, {0.128, 0.256}, {0.256, 0.512},
	}
	inBand := func(b latencyBand) dataset.View {
		var idx []int32
		for _, i := range v.Idx {
			if b.contains(v.P.RTT[i]) {
				idx = append(idx, i)
			}
		}
		return dataset.View{P: v.P, Idx: idx}
	}
	controlUsers := inBand(control)
	// Matching on capacity, loss and both market price metrics isolates
	// latency from the market-development confounders it travels with.
	m := core.Matcher{Confounders: []core.Confounder{
		core.ConfounderCapacity(), core.ConfounderLoss(),
		core.ConfounderAccessPrice(), core.ConfounderUpgradeCost(),
	}}
	t := &Table07{Control: control}
	populated := 0
	for i, band := range treatments {
		exp := core.Experiment{
			Name:      fmt.Sprintf("%v vs %v", control, band),
			Treatment: inBand(band),
			Control:   controlUsers,
			Matcher:   m,
			Outcome:   dataset.PeakUsageNoBT,
			MinPairs:  MinGroup,
		}
		res, err := exp.Run(rng.SplitN("latency", i))
		row := Table07Row{Treatment: band}
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
		return nil, fmt.Errorf("table07: no treatment band matched enough pairs")
	}
	return t, nil
}
