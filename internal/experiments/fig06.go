package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
)

// Fig06 reproduces Figure 6 and the Sec. 4 longitudinal analysis: demand
// versus capacity class, one curve per year. The paper's finding is a
// non-result with teeth: despite the multi-fold growth in global traffic,
// within-class demand stays constant across 2011–2013 — growth comes from
// subscribers moving to higher classes, not from using existing classes
// harder. The companion natural experiment (same class, 2013 vs 2011) must
// therefore come out null.
type Fig06 struct {
	Years  []int
	Panels []Fig06Panel
	// YearExperiments tests, per populated class, H: 2013 users impose
	// higher peak demand than 2011 users of the same class.
	YearExperiments []Fig06Exp
}

// Fig06Panel is one subfigure (metric × BT handling) with one series per year.
type Fig06Panel struct {
	Name   string
	Series []Series
}

// Fig06Exp is a per-class cross-year comparison.
type Fig06Exp struct {
	Class   stats.CapacityClass
	Result  core.Result
	Skipped bool
}

// ID implements Report.
func (f *Fig06) ID() string { return "Fig. 6" }

// Title implements Report.
func (f *Fig06) Title() string { return "Longitudinal demand vs. capacity, by year (2011–2013)" }

// Render implements Report.
func (f *Fig06) Render() string {
	var b strings.Builder
	b.WriteString(header(f.ID(), f.Title()))
	for _, p := range f.Panels {
		fmt.Fprintf(&b, "  panel %s\n", p.Name)
		for _, s := range p.Series {
			b.WriteString(s.render("cap (Mbps)", "usage (Mbps)", 1e-6))
		}
	}
	b.WriteString("  cross-year experiment per class (H: later year uses more; expected NULL):\n")
	for _, e := range f.YearExperiments {
		if e.Skipped {
			fmt.Fprintf(&b, "    %-22s (too few pairs)\n", e.Class)
			continue
		}
		verdict := "null ✓"
		if e.Result.Sig.Significant() {
			verdict = "SIGNIFICANT"
		}
		fmt.Fprintf(&b, "    %-22s %5.1f%% p=%s  %s\n",
			e.Class, 100*e.Result.Fraction(), formatP(e.Result.PValue()), verdict)
	}
	return b.String()
}

// RunFig06 computes the longitudinal figure and its companion experiment.
func RunFig06(d *dataset.Dataset, rng *randx.Source) (Report, error) {
	dasu := dasuView(d, 0)
	years := yearsOf(dasu)
	if len(years) < 2 {
		return nil, fmt.Errorf("fig06: need at least two cohort years, have %v", years)
	}
	f := &Fig06{Years: years}
	yearViews := make([]dataset.View, len(years))
	for i, y := range years {
		yearViews[i] = dasu.Where(dataset.ColYear(y))
	}
	for _, p := range usagePanels(dasu.P) {
		panel := Fig06Panel{Name: p.Name}
		for i, y := range years {
			panel.Series = append(panel.Series, classSeries(fmt.Sprintf("%d", y), yearViews[i], p.Col, MinGroup))
		}
		f.Panels = append(f.Panels, panel)
	}

	// Companion experiment: within each class, latest year vs earliest.
	first, last := years[0], years[len(years)-1]
	oldByClass := byClass(yearViews[0])
	newByClass := byClass(yearViews[len(years)-1])
	var classes []stats.CapacityClass
	for c := range newByClass {
		if oldByClass[c].Len() >= MinGroup && newByClass[c].Len() >= MinGroup {
			classes = append(classes, c)
		}
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		exp := core.Experiment{
			Name:      fmt.Sprintf("%v: %d vs %d", c, last, first),
			Treatment: newByClass[c],
			Control:   oldByClass[c],
			Matcher:   quadMatcher(),
			Outcome:   dataset.PeakUsageNoBT,
		}
		e := Fig06Exp{Class: c}
		var err error
		if e.Result, e.Skipped, err = skipTooFew(exp.Run(rng.SplitN("year", int(c)))); err != nil {
			return nil, err
		}
		f.YearExperiments = append(f.YearExperiments, e)
	}
	if len(f.YearExperiments) == 0 {
		return nil, fmt.Errorf("fig06: no class populated in both %d and %d", first, last)
	}
	return f, nil
}
