package experiments

import (
	"fmt"
	"strings"

	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
)

// Table01 reproduces Table 1: the within-subject service-upgrade natural
// experiment. For users observed on both a slower and a faster service,
// H states that demand increases on the faster network; the paper finds H
// holding for 66.8% of users on average usage (p ≈ 1.94e-25) and 70.3% on
// peak usage (p ≈ 1.13e-36), both without BitTorrent traffic.
type Table01 struct {
	Average core.Result
	Peak    core.Result
	// Wilcoxon signed-rank cross-checks use the magnitudes of the paired
	// differences where the binomial design uses only their signs.
	WilcoxonAvg  stats.WilcoxonResult
	WilcoxonPeak stats.WilcoxonResult
}

// ID implements Report.
func (t *Table01) ID() string { return "Table 1" }

// Title implements Report.
func (t *Table01) Title() string {
	return "Within-user upgrade experiment: demand on faster vs. slower service"
}

// Render implements Report.
func (t *Table01) Render() string {
	var b strings.Builder
	b.WriteString(header(t.ID(), t.Title()))
	fmt.Fprintf(&b, "  %-14s %10s %12s\n", "Metric", "% H holds", "p-value")
	for _, r := range []core.Result{t.Average, t.Peak} {
		fmt.Fprintf(&b, "  %-14s %9.1f%% %12s  (%d/%d)\n",
			r.Name, 100*r.Fraction(), formatP(r.PValue()), r.Holds, r.Pairs)
	}
	fmt.Fprintf(&b, "  Wilcoxon signed-rank cross-check: avg p=%s, peak p=%s\n",
		formatP(t.WilcoxonAvg.P), formatP(t.WilcoxonPeak.P))
	return b.String()
}

// RunTable01 evaluates the upgrade experiment on the switch panel.
func RunTable01(d *dataset.Dataset, _ *randx.Source) (Report, error) {
	if len(d.Switches) == 0 {
		return nil, fmt.Errorf("table01: no switch records")
	}
	avg, err := core.RunPaired("Average usage", d.Switches, core.PairedMeanNoBT)
	if err != nil {
		return nil, err
	}
	peak, err := core.RunPaired("Peak usage", d.Switches, core.PairedPeakNoBT)
	if err != nil {
		return nil, err
	}
	t := &Table01{Average: avg, Peak: peak}
	beforeAvg := make([]float64, len(d.Switches))
	afterAvg := make([]float64, len(d.Switches))
	beforePeak := make([]float64, len(d.Switches))
	afterPeak := make([]float64, len(d.Switches))
	for i, s := range d.Switches {
		beforeAvg[i], afterAvg[i] = float64(s.Before.MeanNoBT), float64(s.After.MeanNoBT)
		beforePeak[i], afterPeak[i] = float64(s.Before.PeakNoBT), float64(s.After.PeakNoBT)
	}
	if t.WilcoxonAvg, err = stats.WilcoxonSignedRank(beforeAvg, afterAvg); err != nil {
		return nil, err
	}
	if t.WilcoxonPeak, err = stats.WilcoxonSignedRank(beforePeak, afterPeak); err != nil {
		return nil, err
	}
	return t, nil
}
