package core

import (
	"fmt"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
)

// Experiment is a declarative natural experiment: who is treated, who is
// control, which covariates make them comparable, and which outcome the
// hypothesis concerns. The hypothesis H is always directional — "treated
// units show a higher outcome than their matched controls" — with null H0
// that the ordering is a fair coin. Treatment and Control are views over
// one panel.
type Experiment struct {
	Name      string
	Treatment dataset.View
	Control   dataset.View
	Matcher   Matcher
	Outcome   dataset.Column
}

// Result reports one natural experiment.
type Result struct {
	Name     string
	Pairs    int
	Holds    int // pairs where treated outcome strictly exceeds control
	Binomial stats.BinomialResult
	Sig      stats.Significance
	Balance  []Balance
}

// Fraction returns the share of pairs where the hypothesis held.
func (r Result) Fraction() float64 { return r.Binomial.Fraction }

// PValue returns the one-tailed binomial p-value.
func (r Result) PValue() float64 { return r.Binomial.P }

// String renders the result in the paper's table style.
func (r Result) String() string {
	marker := ""
	if !r.Sig.Significant() {
		marker = "*"
	}
	return fmt.Sprintf("%s: H holds %.1f%%%s (%d/%d pairs), p=%s",
		r.Name, 100*r.Fraction(), marker, r.Holds, r.Pairs, stats.FormatP(r.PValue()))
}

// ErrTooFewPairs is returned when matching leaves too small a sample.
var ErrTooFewPairs = fmt.Errorf("core: too few matched pairs")

// minPairs is the smallest sample a natural experiment or QED reports a
// verdict on; below it Run returns ErrTooFewPairs rather than a vacuous
// result.
const minPairs = 10

// Run matches the populations and evaluates the hypothesis.
func (e Experiment) Run(rng *randx.Source) (Result, error) {
	if e.Outcome == nil {
		return Result{}, fmt.Errorf("core: experiment %q has no outcome metric", e.Name)
	}
	p, err := commonPanel(e.Treatment, e.Control)
	if err != nil {
		return Result{}, fmt.Errorf("core: experiment %q: %w", e.Name, err)
	}
	pairs := e.Matcher.Match(e.Treatment, e.Control, rng)
	if len(pairs) < minPairs {
		return Result{}, fmt.Errorf("%w: %q matched %d pairs, need %d", ErrTooFewPairs, e.Name, len(pairs), minPairs)
	}
	outcome := e.Outcome(p)
	holds := 0
	for _, pr := range pairs {
		if outcome[pr.Treated] > outcome[pr.Control] {
			holds++
		}
	}
	bin, err := stats.BinomialTest(holds, len(pairs))
	if err != nil {
		return Result{}, err
	}
	return Result{
		Name:     e.Name,
		Pairs:    len(pairs),
		Holds:    holds,
		Binomial: bin,
		Sig:      bin.Assess(),
		Balance:  e.Matcher.CheckBalance(p, pairs),
	}, nil
}

// PairedMetric extracts the compared quantity from a usage summary in the
// within-subject design.
type PairedMetric func(dataset.UsageSummary) float64

// Within-subject metrics matching the paper's Table 1 rows.
var (
	PairedMean     PairedMetric = func(s dataset.UsageSummary) float64 { return float64(s.Mean) }
	PairedPeak     PairedMetric = func(s dataset.UsageSummary) float64 { return float64(s.Peak) }
	PairedMeanNoBT PairedMetric = func(s dataset.UsageSummary) float64 { return float64(s.MeanNoBT) }
	PairedPeakNoBT PairedMetric = func(s dataset.UsageSummary) float64 { return float64(s.PeakNoBT) }
)

// RunPaired evaluates the within-subject upgrade experiment: each user is
// their own control (usage on the slower network) and treatment (usage on
// the faster network). H: demand increases after the upgrade.
func RunPaired(name string, switches []dataset.Switch, metric PairedMetric) (Result, error) {
	if len(switches) == 0 {
		return Result{}, fmt.Errorf("core: %q has no switch records", name)
	}
	holds := 0
	for _, s := range switches {
		if metric(s.After) > metric(s.Before) {
			holds++
		}
	}
	bin, err := stats.BinomialTest(holds, len(switches))
	if err != nil {
		return Result{}, err
	}
	return Result{
		Name:     name,
		Pairs:    len(switches),
		Holds:    holds,
		Binomial: bin,
		Sig:      bin.Assess(),
	}, nil
}
