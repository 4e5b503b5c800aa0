package experiments

import (
	"fmt"
	"strings"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
)

// Fig09 reproduces Figure 9: average peak (95th-percentile) demand per
// country × tier bar chart. Landmarks: in the US, demand rises with every
// tier even though utilization falls; within a tier, the expensive market
// leads (Botswana <1 over US <1; Saudi 1–8 over US 1–8; US >32 over
// Japan >32 by ≈0.8 Mbps).
type Fig09 struct {
	Bars []Fig09Bar
}

// Fig09Bar is one country × tier average peak demand.
type Fig09Bar struct {
	Country string
	Tier    stats.Tier
	Demand  stats.Interval // bps, mean with 95% CI
	N       int
}

// ID implements Report.
func (f *Fig09) ID() string { return "Fig. 9" }

// Title implements Report.
func (f *Fig09) Title() string { return "Average peak demand per country and service tier" }

// Render implements Report.
func (f *Fig09) Render() string {
	var b strings.Builder
	b.WriteString(header(f.ID(), f.Title()))
	fmt.Fprintf(&b, "  %-4s %-12s %12s %24s %5s\n", "cc", "tier", "avg p95", "95% CI", "n")
	for _, bar := range f.Bars {
		fmt.Fprintf(&b, "  %-4s %-12s %9.3f Mbps [%8.3f, %8.3f] %5d\n",
			bar.Country, bar.Tier, bar.Demand.Point/1e6, bar.Demand.Lo/1e6, bar.Demand.Hi/1e6, bar.N)
	}
	return b.String()
}

// Bar returns the bar for a country/tier, if reported.
func (f *Fig09) Bar(country string, tier stats.Tier) (Fig09Bar, bool) {
	for _, bar := range f.Bars {
		if bar.Country == country && bar.Tier == tier {
			return bar, true
		}
	}
	return Fig09Bar{}, false
}

// RunFig09 computes the per-tier demand bars.
func RunFig09(d *dataset.Dataset, _ *randx.Source) (Report, error) {
	f := &Fig09{}
	p := d.Panel()
	for _, cc := range CaseStudyCountries {
		v := p.Where(dataset.ColCountry(cc), dataset.ColVantage(dataset.VantageDasu))
		for _, tier := range stats.Tiers() {
			tv := v.Where(dataset.ColTier(tier))
			if tv.Len() < MinGroup {
				continue
			}
			iv, err := stats.MeanCIIdx(p.UsagePeakNoBT, tv.Idx)
			if err != nil {
				continue
			}
			f.Bars = append(f.Bars, Fig09Bar{Country: cc, Tier: tier, Demand: iv, N: tv.Len()})
		}
	}
	if len(f.Bars) == 0 {
		return nil, fmt.Errorf("fig09: no country×tier group reached %d users", MinGroup)
	}
	return f, nil
}
