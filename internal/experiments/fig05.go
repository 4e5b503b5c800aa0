package experiments

import (
	"fmt"
	"strings"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
)

// Fig05 reproduces Figure 5: the average change in demand when upgrading,
// grouped by the initial service tier (0.25–1, 1–4, 4–16, 16–64, 64–256
// Mbps), for mean and peak usage, with and without BitTorrent. The paper's
// shape: clear increases when upgrading from slow tiers, noisy/insignificant
// changes above ≈16 Mbps (wide confidence intervals).
type Fig05 struct {
	Panels []Fig05Panel
}

// Fig05Panel is one of the four subfigures.
type Fig05Panel struct {
	Name string
	Rows []Fig05Row
}

// Fig05Row is the average demand change for upgrades out of one tier.
type Fig05Row struct {
	FromTier string
	Change   stats.Interval // bps
	N        int
}

// ID implements Report.
func (f *Fig05) ID() string { return "Fig. 5" }

// Title implements Report.
func (f *Fig05) Title() string { return "Change in demand when switching, by initial service tier" }

// Render implements Report.
func (f *Fig05) Render() string {
	var b strings.Builder
	b.WriteString(header(f.ID(), f.Title()))
	for _, p := range f.Panels {
		fmt.Fprintf(&b, "  panel %s\n", p.Name)
		fmt.Fprintf(&b, "    %-14s %14s %22s %5s\n", "initial tier", "Δ (Mbps)", "95% CI", "n")
		for _, r := range p.Rows {
			fmt.Fprintf(&b, "    %-14s %14.4f [%9.4f, %9.4f] %5d\n",
				r.FromTier, r.Change.Point/1e6, r.Change.Lo/1e6, r.Change.Hi/1e6, r.N)
		}
	}
	return b.String()
}

// RunFig05 computes per-tier upgrade deltas.
func RunFig05(d *dataset.Dataset, _ *randx.Source) (Report, error) {
	if len(d.Switches) == 0 {
		return nil, fmt.Errorf("fig05: no switch records")
	}
	panels := []struct {
		name  string
		delta func(dataset.Switch) float64
	}{
		{"(a) mean w/ BT", func(s dataset.Switch) float64 { return float64(s.After.Mean - s.Before.Mean) }},
		{"(b) 95th %ile w/ BT", func(s dataset.Switch) float64 { return float64(s.After.Peak - s.Before.Peak) }},
		{"(c) mean no BT", func(s dataset.Switch) float64 { return float64(s.After.MeanNoBT - s.Before.MeanNoBT) }},
		{"(d) 95th %ile no BT", func(s dataset.Switch) float64 { return float64(s.After.PeakNoBT - s.Before.PeakNoBT) }},
	}
	f := &Fig05{}
	for _, p := range panels {
		groups := make(map[switchTier][]float64)
		for _, s := range d.Switches {
			tier, ok := switchTierOf(s.FromDown)
			if !ok {
				continue
			}
			groups[tier] = append(groups[tier], p.delta(s))
		}
		panel := Fig05Panel{Name: p.name}
		for t := switchTier(0); t < 5; t++ {
			vals := groups[t]
			if len(vals) < 3 {
				continue
			}
			iv, err := stats.MeanCI(vals)
			if err != nil {
				continue
			}
			panel.Rows = append(panel.Rows, Fig05Row{FromTier: t.String(), Change: iv, N: len(vals)})
		}
		if len(panel.Rows) == 0 {
			return nil, fmt.Errorf("fig05: panel %q has no populated tiers", p.name)
		}
		f.Panels = append(f.Panels, panel)
	}
	return f, nil
}
