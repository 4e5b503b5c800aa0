package experiments

import (
	"fmt"
	"strings"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
)

// Fig02 reproduces Figure 2: mean and peak (95th-percentile) download
// demand versus download capacity, with and without BitTorrent traffic,
// aggregated over the paper's capacity classes. The paper's headline is the
// strong log-log correlation (r ≥ 0.87 in every panel) together with the
// law of diminishing returns (growth flattens at high capacities).
type Fig02 struct {
	Panels []Fig02Panel
}

// Fig02Panel is one of the four subfigures.
type Fig02Panel struct {
	Name   string
	Series Series
	R      float64 // log-log correlation of the binned series
}

// ID implements Report.
func (f *Fig02) ID() string { return "Fig. 2" }

// Title implements Report.
func (f *Fig02) Title() string { return "Download demand vs. link capacity (by capacity class)" }

// Render implements Report.
func (f *Fig02) Render() string {
	var b strings.Builder
	b.WriteString(header(f.ID(), f.Title()))
	for _, p := range f.Panels {
		fmt.Fprintf(&b, "  panel %s (log-log r = %.3f)\n", p.Name, p.R)
		b.WriteString(p.Series.render("cap (Mbps)", "usage (Mbps)", 1e-6))
	}
	return b.String()
}

// RunFig02 computes the capacity-vs-usage figure.
func RunFig02(d *dataset.Dataset, _ *randx.Source) (Report, error) {
	v := dasuView(d, 0)
	if v.Len() == 0 {
		return nil, fmt.Errorf("fig02: no end-host users")
	}
	f := &Fig02{}
	for _, p := range usagePanels(v.P) {
		s := classSeries(p.Name, v, p.Col, MinGroup)
		if len(s.Points) < 3 {
			return nil, fmt.Errorf("fig02: panel %q has only %d populated classes", p.Name, len(s.Points))
		}
		r, err := seriesLogCorrelation(s)
		if err != nil {
			return nil, fmt.Errorf("fig02: panel %q: %w", p.Name, err)
		}
		f.Panels = append(f.Panels, Fig02Panel{Name: p.Name, Series: s, R: r})
	}
	return f, nil
}
