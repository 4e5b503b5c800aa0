package experiments

import (
	"errors"
	"fmt"
	"strings"

	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/unit"
)

// ExtC cross-validates the paper's natural-experiment design against the
// quasi-experimental design (QED) its related work discusses (Krishnan &
// Sitaraman): the same capacity hypothesis evaluated under nearest-neighbor
// caliper matching and under exact stratification. The paper chose natural
// experiments "as we consider the control and treatment groups to be
// sufficiently similar to random assignment"; this extension checks that
// the choice does not drive the conclusions.
type ExtC struct {
	Rows []ExtCRow
}

// ExtCRow compares the two designs on one capacity rung.
type ExtCRow struct {
	Control    stats.CapacityClass
	Treatment  stats.CapacityClass
	NN         core.Result
	QED        core.QEDResult
	NNSkipped  bool
	QEDSkipped bool
}

// Agree reports whether the populated designs reach the same verdict.
func (r ExtCRow) Agree() bool {
	if r.NNSkipped || r.QEDSkipped {
		return true // nothing to disagree about
	}
	return r.NN.Sig.Significant() == r.QED.Sig.Significant()
}

// ID implements Report.
func (e *ExtC) ID() string { return "Ext. C" }

// Title implements Report.
func (e *ExtC) Title() string { return "Design cross-validation: natural experiment vs. QED" }

// Render implements Report.
func (e *ExtC) Render() string {
	var b strings.Builder
	b.WriteString(header(e.ID(), e.Title()))
	fmt.Fprintf(&b, "  %-22s %-22s %16s %22s %7s\n", "Control", "Treatment", "NN matching", "QED stratification", "agree")
	for _, r := range e.Rows {
		nn := "(too few)"
		if !r.NNSkipped {
			star := ""
			if !r.NN.Sig.Significant() {
				star = "*"
			}
			nn = fmt.Sprintf("%.1f%%%s n=%d", 100*r.NN.Fraction(), star, r.NN.Pairs)
		}
		qed := "(too few)"
		if !r.QEDSkipped {
			star := ""
			if !r.QED.Sig.Significant() {
				star = "*"
			}
			qed = fmt.Sprintf("%.1f%%%s n=%d", 100*r.QED.Fraction(), star, r.QED.Pairs)
		}
		fmt.Fprintf(&b, "  %-22s %-22s %16s %22s %7v\n", r.Control, r.Treatment, nn, qed, r.Agree())
	}
	return b.String()
}

// RunExtC evaluates the design comparison over a set of capacity rungs.
func RunExtC(d *dataset.Dataset, rng *randx.Source) (Report, error) {
	classes := byClass(dasuView(d, 0))
	confs := []core.Confounder{
		core.ConfounderRTT(), core.ConfounderLoss(),
		core.ConfounderAccessPrice(), core.ConfounderUpgradeCost(),
	}
	e := &ExtC{}
	first := stats.ClassOf(unit.KbpsOf(600)) // (0.4, 0.8]
	populated := 0
	for k := first; k < first+7; k++ {
		row := ExtCRow{Control: k, Treatment: k + 1}
		exp := core.Experiment{
			Name:      fmt.Sprintf("nn %v", k),
			Treatment: classes[k+1],
			Control:   classes[k],
			Matcher:   core.Matcher{Confounders: confs},
			Outcome:   dataset.PeakUsageNoBT,
			MinPairs:  MinGroup,
		}
		nn, err := exp.Run(rng.SplitN("nn", int(k)))
		switch {
		case errors.Is(err, core.ErrTooFewPairs):
			row.NNSkipped = true
		case err != nil:
			return nil, err
		default:
			row.NN = nn
		}
		qed := core.QED{
			Name:        fmt.Sprintf("qed %v", k),
			Treatment:   classes[k+1],
			Control:     classes[k],
			Confounders: confs,
			Outcome:     dataset.PeakUsageNoBT,
			MinPairs:    MinGroup,
		}
		qres, err := qed.Run(rng.SplitN("qed", int(k)))
		switch {
		case errors.Is(err, core.ErrTooFewPairs):
			row.QEDSkipped = true
		case err != nil:
			return nil, err
		default:
			row.QED = qres
		}
		if !row.NNSkipped || !row.QEDSkipped {
			populated++
		}
		e.Rows = append(e.Rows, row)
	}
	if populated == 0 {
		return nil, fmt.Errorf("extC: no populated rungs")
	}
	return e, nil
}
