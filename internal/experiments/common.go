// Package experiments reproduces every table and figure of the paper's
// evaluation against a generated dataset. Each experiment is a module that
// computes a typed result and renders the same rows/series the paper
// reports; the registry enumerates them all for the repro driver and the
// benchmark harness.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/unit"
)

// Report is a reproduced table or figure.
type Report interface {
	// ID is the paper artifact this reproduces, e.g. "Table 2" or "Fig. 6".
	ID() string
	// Title is a one-line description.
	Title() string
	// Render returns the textual reproduction (rows or series).
	Render() string
}

// Runner computes one report from a dataset.
type Runner func(d *dataset.Dataset, rng *randx.Source) (Report, error)

// Entry pairs a report identity with its runner.
type Entry struct {
	ID    string
	Title string
	Run   Runner
}

// MinGroup is the smallest population an experiment group must have to be
// reported; the paper uses 30 for per-tier country plots, but reproduction
// worlds may be smaller, so experiments degrade to this floor.
const MinGroup = 10

// SeriesPoint is one aggregated point of a figure series.
type SeriesPoint struct {
	X      float64 // bin position (Mbps for capacity axes)
	Y      float64 // aggregated value
	Lo, Hi float64 // 95% CI of the mean
	N      int
}

// Series is a labeled sequence of points.
type Series struct {
	Label  string
	Points []SeriesPoint
}

// render formats a series as aligned rows.
func (s Series) render(xName, yName string, scale float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %s:\n", s.Label)
	fmt.Fprintf(&b, "    %12s %12s %12s %12s %6s\n", xName, yName, "ci-lo", "ci-hi", "n")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "    %12.4g %12.4g %12.4g %12.4g %6d\n",
			p.X, p.Y*scale, p.Lo*scale, p.Hi*scale, p.N)
	}
	return b.String()
}

// classSeries aggregates one usage column by the paper's 100 kbps × 2^k
// capacity classes: per-class mean with 95% CI, positioned at the geometric
// center of the class in Mbps. Classes with fewer than minN users are
// dropped. The aggregation runs columnar — per-class index vectors into
// col, no per-class value copies.
func classSeries(label string, v dataset.View, col []float64, minN int) Series {
	groups := byClass(v)
	classes := make([]stats.CapacityClass, 0, len(groups))
	for c := range groups {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	s := Series{Label: label}
	for _, c := range classes {
		idx := groups[c].Idx
		if len(idx) < minN {
			continue
		}
		iv, err := stats.MeanCIIdx(col, idx)
		if err != nil {
			continue
		}
		x := math.Sqrt(c.Lower().Mbps() * c.Upper().Mbps())
		s.Points = append(s.Points, SeriesPoint{X: x, Y: iv.Point, Lo: iv.Lo, Hi: iv.Hi, N: len(idx)})
	}
	return s
}

// groupBy splits a view into per-key sub-views, preserving view order
// within each group.
func groupBy[K comparable](v dataset.View, key func(row int32) K) map[K]dataset.View {
	groups := make(map[K]dataset.View)
	for _, i := range v.Idx {
		k := key(i)
		g := groups[k]
		g.P = v.P
		g.Idx = append(g.Idx, i)
		groups[k] = g
	}
	return groups
}

// byClass splits a view into per-capacity-class sub-views.
func byClass(v dataset.View) map[stats.CapacityClass]dataset.View {
	return groupBy(v, func(i int32) stats.CapacityClass { return stats.ClassOf(unit.Bitrate(v.P.Capacity[i])) })
}

// usagePanels is the four-way metric × BT-handling sweep Figs. 2 and 6
// share: each entry names a subfigure and its usage column.
func usagePanels(p *dataset.Panel) []struct {
	Name string
	Col  []float64
} {
	return []struct {
		Name string
		Col  []float64
	}{
		{"(a) mean w/ BT", p.UsageMean},
		{"(b) 95th %ile w/ BT", p.UsagePeak},
		{"(c) mean no BT", p.UsageMeanNoBT},
		{"(d) 95th %ile no BT", p.UsagePeakNoBT},
	}
}

// seriesLogCorrelation is the log-log Pearson correlation of a binned
// series — the r the paper quotes for Figs. 2 and 3.
func seriesLogCorrelation(s Series) (float64, error) {
	xs := make([]float64, 0, len(s.Points))
	ys := make([]float64, 0, len(s.Points))
	for _, p := range s.Points {
		xs = append(xs, p.X)
		ys = append(ys, p.Y)
	}
	return stats.LogPearson(xs, ys)
}

// ecdfQuantiles renders an ECDF compactly as its key quantiles.
func ecdfQuantiles(label string, xs []float64, format func(float64) string) (string, error) {
	e, err := stats.NewECDF(xs)
	if err != nil {
		return "", fmt.Errorf("%s: %w", label, err)
	}
	return fmt.Sprintf("  %-28s %s\n", label+":", e.RenderQuantiles(format)), nil
}

// fmtMbps formats a bps value in Mbps for rendering.
func fmtMbps(v float64) string { return fmt.Sprintf("%.3g Mbps", v/1e6) }

// fmtMs formats a seconds value in milliseconds.
func fmtMs(v float64) string { return fmt.Sprintf("%.3g ms", v*1000) }

// fmtPct formats a fraction as percent.
func fmtPct(v float64) string { return fmt.Sprintf("%.3g%%", v*100) }

// dasuView selects the end-host panel (all years unless year > 0) as a
// columnar view.
func dasuView(d *dataset.Dataset, year int) dataset.View {
	preds := []dataset.ColPred{dataset.ColVantage(dataset.VantageDasu)}
	if year > 0 {
		preds = append(preds, dataset.ColYear(year))
	}
	return d.Panel().Where(preds...)
}

// yearsOf gathers the sorted distinct observation years of a view — the
// one column-gather seam behind primaryYear and Fig. 6's cohort list
// (which previously each re-scanned the user structs).
func yearsOf(v dataset.View) []int {
	set := map[int]bool{}
	for _, i := range v.Idx {
		set[v.P.Year[i]] = true
	}
	years := make([]int, 0, len(set))
	for y := range set {
		years = append(years, y)
	}
	sort.Ints(years)
	return years
}

// primaryYear returns the latest year present in the panel.
func primaryYear(d *dataset.Dataset) int {
	year := 0
	for _, y := range yearsOf(d.Panel().All()) {
		if y > year {
			year = y
		}
	}
	return year
}

// formatP renders p-values the way the paper's tables do.
func formatP(p float64) string { return stats.FormatP(p) }

// header renders the standard report heading.
func header(id, title string) string {
	return fmt.Sprintf("=== %s — %s ===\n", id, title)
}

// tierKey renders a capacity in the paper's tier buckets used by Fig. 5
// (0.25–1, 1–4, 4–16, 16–64, 64–256 Mbps).
type switchTier int

var switchTierBounds = []unit.Bitrate{
	unit.KbpsOf(250), unit.MbpsOf(1), unit.MbpsOf(4), unit.MbpsOf(16), unit.MbpsOf(64), unit.MbpsOf(256),
}

func switchTierOf(r unit.Bitrate) (switchTier, bool) {
	for i := 0; i+1 < len(switchTierBounds); i++ {
		if r > switchTierBounds[i] && r <= switchTierBounds[i+1] {
			return switchTier(i), true
		}
	}
	return 0, false
}

func (t switchTier) String() string {
	names := []string{"0.25-1", "1-4", "4-16", "16-64", "64-256"}
	if int(t) < len(names) {
		return names[t] + " Mbps"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}
