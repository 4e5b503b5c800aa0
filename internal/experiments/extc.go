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
		fmt.Fprintf(&b, "  %-22s %-22s %16s %22s %7v\n", r.Control, r.Treatment,
			designCell(r.NN, r.NNSkipped), designCell(r.QED.Result, r.QEDSkipped), r.Agree())
	}
	return b.String()
}

// designCell renders one design's verdict on a rung.
func designCell(r core.Result, skipped bool) string {
	if skipped {
		return "(too few)"
	}
	return fmt.Sprintf("%.1f%%%s n=%d", 100*r.Fraction(), star(r), r.Pairs)
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
		}
		var err error
		if row.NN, row.NNSkipped, err = skipTooFew(exp.Run(rng.SplitN("nn", int(k)))); err != nil {
			return nil, err
		}
		qed := core.QED{
			Name:        fmt.Sprintf("qed %v", k),
			Treatment:   classes[k+1],
			Control:     classes[k],
			Confounders: confs,
			Outcome:     dataset.PeakUsageNoBT,
		}
		if row.QED, row.QEDSkipped, err = skipTooFew(qed.Run(rng.SplitN("qed", int(k)))); err != nil {
			return nil, err
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
