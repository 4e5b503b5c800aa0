package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/traffic"
	"github.com/nwca/broadband/internal/unit"
)

// Extensions lists the analyses that go beyond the paper's published
// artifacts: the future-work directions its Sec. 10 sketches (user
// categories) and the usage-cap effects it cites from Chetty et al. [7].
// They run against the same datasets as the reproductions.
func Extensions() []Entry {
	return []Entry{
		{ID: "Ext. A", Title: "Usage caps and demand (Chetty et al. direction)", Run: RunExtA},
		{ID: "Ext. B", Title: "Demand by user category (Sec. 10 future work)", Run: RunExtB},
		{ID: "Ext. C", Title: "Design cross-validation: natural experiment vs. QED", Run: RunExtC},
	}
}

// ExtA is the usage-cap natural experiment: among otherwise-similar users
// (same capacity, quality and market prices), do subscribers of capped
// plans impose lower average demand? The caps literature (Chetty et al.,
// cited by the paper) says yes; the generator models partial-compliance
// pacing, so the experiment must recover it.
type ExtA struct {
	// CappedShare is the fraction of end-host users on capped plans.
	CappedShare float64
	// AnyCap tests H: uncapped users impose higher mean demand than their
	// matched capped counterparts.
	AnyCap Comparison[string]
	// TightCap restricts the control group to users whose allowance is
	// small against what uncapped users of the same capacity class
	// typically move in a month (cap < 1.2× the class-median uncapped
	// monthly volume — an allowance a typical household would brush
	// against). Defining "binding" from the uncapped population
	// keeps the classifier pre-treatment — conditioning on the capped
	// user's own (suppressed) usage would select heavy users and invert
	// the comparison. Generous caps never bind, so the any-cap comparison
	// is expected to sit near chance.
	TightCap Comparison[string]
}

// ID implements Report.
func (e *ExtA) ID() string { return "Ext. A" }

// Title implements Report.
func (e *ExtA) Title() string { return "Usage caps and demand" }

// Render implements Report.
func (e *ExtA) Render() string {
	var b strings.Builder
	b.WriteString(header(e.ID(), e.Title()))
	fmt.Fprintf(&b, "  %.0f%% of end-host users are on capped plans\n", 100*e.CappedShare)
	if e.AnyCap.Skipped {
		b.WriteString("  all-caps comparison: too few matched pairs\n")
	} else {
		r := e.AnyCap.Result
		fmt.Fprintf(&b, "  uncapped vs any-cap:   H holds %.1f%% (p=%s, %d pairs)\n",
			100*r.Fraction(), formatP(r.PValue()), r.Pairs)
	}
	if e.TightCap.Skipped {
		b.WriteString("  tight-caps comparison: too few matched pairs\n")
	} else {
		r := e.TightCap.Result
		fmt.Fprintf(&b, "  uncapped vs tight-cap: H holds %.1f%% (p=%s, %d pairs)\n",
			100*r.Fraction(), formatP(r.PValue()), r.Pairs)
	}
	return b.String()
}

// RunExtA evaluates the usage-cap experiment.
func RunExtA(d *dataset.Dataset, rng *randx.Source) (Report, error) {
	v := dasuView(d, 0)
	p := v.P
	var cappedIdx, uncappedIdx []int32
	for _, i := range v.Idx {
		if p.PlanCap[i] == 0 {
			uncappedIdx = append(uncappedIdx, i)
		} else {
			cappedIdx = append(cappedIdx, i)
		}
	}
	// Class-typical uncapped monthly volume, the pre-treatment yardstick
	// for whether an allowance binds.
	classMonthly := map[stats.CapacityClass]float64{}
	{
		byClass := map[stats.CapacityClass][]float64{}
		for _, i := range uncappedIdx {
			c := stats.ClassOf(unit.Bitrate(p.Capacity[i]))
			byClass[c] = append(byClass[c], p.UsageMeanNoBT[i]/8*86400*30)
		}
		for c, vols := range byClass {
			if med, err := stats.Median(vols); err == nil {
				classMonthly[c] = med
			}
		}
	}
	var tightIdx []int32
	for _, i := range cappedIdx {
		if typical, ok := classMonthly[stats.ClassOf(unit.Bitrate(p.Capacity[i]))]; ok && float64(p.PlanCap[i]) < 1.2*typical {
			tightIdx = append(tightIdx, i)
		}
	}
	if len(cappedIdx) == 0 || len(uncappedIdx) == 0 {
		return nil, fmt.Errorf("extA: need both capped (%d) and uncapped (%d) users", len(cappedIdx), len(uncappedIdx))
	}
	capped := dataset.View{P: p, Idx: cappedIdx}
	uncapped := dataset.View{P: p, Idx: uncappedIdx}
	tight := dataset.View{P: p, Idx: tightIdx}
	e := &ExtA{
		CappedShare: float64(capped.Len()) / float64(v.Len()),
		AnyCap:      Comparison[string]{Control: "capped", Treatment: "uncapped"},
		TightCap:    Comparison[string]{Control: "tight", Treatment: "uncapped"},
	}
	m := core.Matcher{Confounders: []core.Confounder{
		core.ConfounderCapacity(), core.ConfounderRTT(), core.ConfounderLoss(),
		core.ConfounderAccessPrice(), core.ConfounderUpgradeCost(),
	}}
	run := func(c *Comparison[string], control dataset.View) (err error) {
		exp := core.Experiment{
			Name:      "uncapped vs " + c.Control,
			Treatment: uncapped,
			Control:   control,
			Matcher:   m,
			Outcome:   dataset.MeanUsageNoBT,
		}
		c.Result, c.Skipped, err = skipTooFew(exp.Run(rng.Split(c.Control)))
		return err
	}
	if err := run(&e.AnyCap, capped); err != nil {
		return nil, err
	}
	if err := run(&e.TightCap, tight); err != nil {
		return nil, err
	}
	if e.AnyCap.Skipped && e.TightCap.Skipped {
		return nil, fmt.Errorf("extA: no comparison matched enough pairs")
	}
	return e, nil
}

// ExtB is the user-category analysis the paper's Sec. 10 proposes: treating
// users as a heterogeneous population of archetypes rather than one
// consumer group. It reports demand by category and runs a matched
// experiment per category pair at equal capacity/quality/market.
type ExtB struct {
	Rows []ExtBRow
	// StreamerVsBrowser is the sharpest category contrast: H states that
	// streamers ("movie-watchers") impose higher mean demand than matched
	// browsers.
	StreamerVsBrowser Comparison[traffic.Archetype]
	// GamerLatencyShare reports what fraction of high-latency (>250 ms)
	// gamer lines fall below their category's median demand — gamers being
	// the most latency-sensitive category.
	GamerHighRTTBelowMedian float64
}

// ExtBRow summarizes one archetype's population.
type ExtBRow struct {
	Archetype  traffic.Archetype
	N          int
	MeanDemand stats.Interval // bps, mean usage no BT
	PeakDemand stats.Interval
}

// ID implements Report.
func (e *ExtB) ID() string { return "Ext. B" }

// Title implements Report.
func (e *ExtB) Title() string { return "Demand by user category" }

// Render implements Report.
func (e *ExtB) Render() string {
	var b strings.Builder
	b.WriteString(header(e.ID(), e.Title()))
	fmt.Fprintf(&b, "  %-12s %6s %16s %16s\n", "category", "n", "mean (Mbps)", "peak (Mbps)")
	for _, r := range e.Rows {
		fmt.Fprintf(&b, "  %-12s %6d %16.3f %16.3f\n",
			r.Archetype, r.N, r.MeanDemand.Point/1e6, r.PeakDemand.Point/1e6)
	}
	if e.StreamerVsBrowser.Skipped {
		b.WriteString("  streamer-vs-browser: too few matched pairs\n")
	} else {
		r := e.StreamerVsBrowser.Result
		fmt.Fprintf(&b, "  matched streamer-vs-browser: H holds %.1f%% (p=%s, %d pairs)\n",
			100*r.Fraction(), formatP(r.PValue()), r.Pairs)
	}
	fmt.Fprintf(&b, "  high-latency gamers below their category median: %.0f%%\n", 100*e.GamerHighRTTBelowMedian)
	return b.String()
}

// RunExtB evaluates the user-category analysis.
func RunExtB(d *dataset.Dataset, rng *randx.Source) (Report, error) {
	v := dasuView(d, 0)
	p := v.P
	byArch := map[traffic.Archetype][]int32{}
	for _, i := range v.Idx {
		byArch[p.Archetype[i]] = append(byArch[p.Archetype[i]], i)
	}
	e := &ExtB{StreamerVsBrowser: Comparison[traffic.Archetype]{Control: traffic.Browser, Treatment: traffic.Streamer}}
	archs := traffic.Archetypes()
	sort.Slice(archs, func(i, j int) bool { return archs[i] < archs[j] })
	for _, a := range archs {
		idx := byArch[a]
		if len(idx) < MinGroup {
			continue
		}
		mean, err := stats.MeanCIIdx(p.UsageMeanNoBT, idx)
		if err != nil {
			return nil, err
		}
		peak, err := stats.MeanCIIdx(p.UsagePeakNoBT, idx)
		if err != nil {
			return nil, err
		}
		e.Rows = append(e.Rows, ExtBRow{Archetype: a, N: len(idx), MeanDemand: mean, PeakDemand: peak})
	}
	if len(e.Rows) < 3 {
		return nil, fmt.Errorf("extB: only %d archetypes populated", len(e.Rows))
	}

	c := &e.StreamerVsBrowser
	exp := core.Experiment{
		Name:      "streamers vs browsers",
		Treatment: dataset.View{P: p, Idx: byArch[c.Treatment]},
		Control:   dataset.View{P: p, Idx: byArch[c.Control]},
		Matcher: core.Matcher{Confounders: []core.Confounder{
			core.ConfounderCapacity(), core.ConfounderRTT(), core.ConfounderLoss(),
			core.ConfounderAccessPrice(),
		}},
		Outcome: dataset.MeanUsageNoBT,
	}
	var err error
	if c.Result, c.Skipped, err = skipTooFew(exp.Run(rng.Split("streamer-browser"))); err != nil {
		return nil, err
	}

	// Gamer latency sensitivity: high-RTT gamers should sit below the
	// gamer median demand far more than half the time.
	gamers := byArch[traffic.Gamer]
	if len(gamers) >= MinGroup {
		med, err := stats.Median(dataset.View{P: p, Idx: gamers}.Gather(p.UsageMeanNoBT))
		if err != nil {
			return nil, err
		}
		below, total := 0, 0
		for _, i := range gamers {
			if p.RTT[i] > 0.25 {
				total++
				if p.UsageMeanNoBT[i] < med {
					below++
				}
			}
		}
		if total > 0 {
			e.GamerHighRTTBelowMedian = float64(below) / float64(total)
		}
	}
	return e, nil
}
