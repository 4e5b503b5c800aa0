package experiments

import (
	"fmt"
	"strings"

	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
)

// Fig11 reproduces Figure 11 and the Sec. 7.1 India analysis: latency CDFs
// for users in India versus the rest of the population, for the NDT RTT of
// the 2011–2013 panel, the NDT RTT of the latest cohort, and the
// popular-website RTT added in 2014 (our generator records WebRTT on every
// user; the latest cohort plays the role of the paper's mid-2014 sample).
// It also runs the companion matched experiment: India's demand is LOWER
// than comparable US users' 62% of the time (p < 0.001) despite India's
// higher access price — the quality arrow overpowering the price arrow.
type Fig11 struct {
	NDTIndiaAll, NDTOtherAll   []float64 `golden:"-"` // '11–'13 NDT RTT, seconds
	NDTIndia14, NDTOther14     []float64 `golden:"-"` // latest-cohort NDT RTT
	WebIndia14, WebOther14     []float64 `golden:"-"` // latest-cohort web RTT
	FracIndiaOver100ms         float64
	IndiaVsUS                  Comparison[string] // H: US (low latency) uses more than matched India
	MedianIndiaNDT, MedianRest float64
	// KS quantifies the NDT-latency CDF separation.
	KS stats.KSResult
}

// ID implements Report.
func (f *Fig11) ID() string { return "Fig. 11" }

// Title implements Report.
func (f *Fig11) Title() string { return "Latency CDFs: India vs. the rest of the population" }

// Render implements Report.
func (f *Fig11) Render() string {
	var b strings.Builder
	b.WriteString(header(f.ID(), f.Title()))
	for _, row := range []struct {
		label string
		vals  []float64
	}{
		{"NDT '11-'13 India", f.NDTIndiaAll},
		{"NDT '11-'13 Other", f.NDTOtherAll},
		{"NDT '14 India", f.NDTIndia14},
		{"NDT '14 Other", f.NDTOther14},
		{"Web '14 India", f.WebIndia14},
		{"Web '14 Other", f.WebOther14},
	} {
		if s, err := ecdfQuantiles(row.label, row.vals, fmtMs); err == nil {
			b.WriteString(s)
		}
	}
	fmt.Fprintf(&b, "  %.0f%% of Indian users above 100 ms (median %0.f ms vs %.0f ms elsewhere)\n",
		100*f.FracIndiaOver100ms, f.MedianIndiaNDT*1000, f.MedianRest*1000)
	fmt.Fprintf(&b, "  KS separation D=%.3f (p=%s)\n", f.KS.D, formatP(f.KS.P))
	if f.IndiaVsUS.Skipped {
		b.WriteString("  India-vs-US matched comparison: too few pairs\n")
	} else {
		r := f.IndiaVsUS.Result
		fmt.Fprintf(&b, "  matched India-vs-US: US demand higher in %.1f%% of pairs (p=%s)\n",
			100*r.Fraction(), formatP(r.PValue()))
	}
	return b.String()
}

// RunFig11 computes the India latency comparison.
func RunFig11(d *dataset.Dataset, rng *randx.Source) (Report, error) {
	all := dasuView(d, 0)
	year := primaryYear(d)
	p := all.P
	inCode, inKnown := p.Countries.Code("IN")
	f := &Fig11{IndiaVsUS: Comparison[string]{Control: "IN", Treatment: "US"}}
	over := 0
	indiaCount := 0
	for _, i := range all.Idx {
		if inKnown && p.Country[i] == inCode {
			indiaCount++
			f.NDTIndiaAll = append(f.NDTIndiaAll, p.RTT[i])
			if p.RTT[i] > 0.1 {
				over++
			}
			if p.Year[i] == year {
				f.NDTIndia14 = append(f.NDTIndia14, p.RTT[i])
				f.WebIndia14 = append(f.WebIndia14, p.WebRTT[i])
			}
		} else {
			f.NDTOtherAll = append(f.NDTOtherAll, p.RTT[i])
			if p.Year[i] == year {
				f.NDTOther14 = append(f.NDTOther14, p.RTT[i])
				f.WebOther14 = append(f.WebOther14, p.WebRTT[i])
			}
		}
	}
	if indiaCount < MinGroup {
		return nil, fmt.Errorf("fig11: only %d Indian users", indiaCount)
	}
	f.FracIndiaOver100ms = float64(over) / float64(indiaCount)
	var err error
	if f.MedianIndiaNDT, err = stats.Median(f.NDTIndiaAll); err != nil {
		return nil, err
	}
	if f.MedianRest, err = stats.Median(f.NDTOtherAll); err != nil {
		return nil, err
	}
	if f.KS, err = stats.KSTest(f.NDTIndiaAll, f.NDTOtherAll); err != nil {
		return nil, err
	}

	// Companion experiment: match India against US users of similar
	// capacity; H (as the paper frames its surprise): the US user, enjoying
	// lower latency and loss, imposes HIGHER demand despite the lower
	// access price.
	c := &f.IndiaVsUS
	exp := core.Experiment{
		Name:      "US vs India at matched capacity",
		Treatment: p.Where(dataset.ColCountry(c.Treatment), dataset.ColVantage(dataset.VantageDasu)),
		Control:   p.Where(dataset.ColCountry(c.Control), dataset.ColVantage(dataset.VantageDasu)),
		Matcher:   core.Matcher{Confounders: []core.Confounder{core.ConfounderCapacity()}},
		Outcome:   dataset.PeakUsageNoBT,
	}
	if c.Result, c.Skipped, err = skipTooFew(exp.Run(rng.Split("india-us"))); err != nil {
		return nil, err
	}
	return f, nil
}
