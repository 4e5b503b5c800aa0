package experiments

import (
	"errors"
	"fmt"

	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
)

// The natural-experiment method of Tables 2, 3, 6, 7 and 8: treated and
// control groups are matched, and a one-tailed binomial test with the
// practical-significance rule decides each rung. This file holds the one
// path every such table runs and renders its rungs through.

// skipTooFew turns an underpowered experiment (too few matched pairs) into a
// skipped result, so a table reports the rung as "(too few)" instead of
// failing. It serves both core.Experiment.Run and core.QED.Run.
func skipTooFew[R any](res R, err error) (R, bool, error) {
	if errors.Is(err, core.ErrTooFewPairs) {
		var zero R
		return zero, true, nil
	}
	return res, false, err
}

// Comparison is one rung of a natural-experiment table: the control and
// treatment groups it compares and the matched result, or Skipped when
// matching left too few pairs in this world.
type Comparison[G any] struct {
	Control   G
	Treatment G
	Result    core.Result
	Skipped   bool
}

// matchRungs runs one matched experiment per rung, in order, and records
// each result in place. group resolves a group to its population; label
// gives rung i its experiment name and RNG stream, so every table keeps
// its own result names and draws. An underpowered rung is kept as
// Skipped; a table with no populated rung is an error.
func matchRungs[G any](rungs []Comparison[G], group func(G) dataset.View, m core.Matcher, outcome dataset.Column,
	label func(i int, c Comparison[G]) (string, *randx.Source)) ([]Comparison[G], error) {
	populated := 0
	for i := range rungs {
		c := &rungs[i]
		name, rng := label(i, *c)
		exp := core.Experiment{
			Name:      name,
			Treatment: group(c.Treatment),
			Control:   group(c.Control),
			Matcher:   m,
			Outcome:   outcome,
		}
		var err error
		if c.Result, c.Skipped, err = skipTooFew(exp.Run(rng)); err != nil {
			return nil, err
		}
		if !c.Skipped {
			populated++
		}
	}
	if populated == 0 {
		return nil, errors.New("no rung matched enough pairs")
	}
	return rungs, nil
}

// resultColumns heads the columns resultCells renders.
var resultColumns = fmt.Sprintf("%10s %12s %7s", "% H holds", "p-value", "pairs")

// resultCells renders a result as the paper's "% H holds, p-value, pairs"
// columns; a skipped rung reads "(too few)".
func resultCells(r core.Result, skipped bool) string {
	if skipped {
		return fmt.Sprintf("%10s %12s %7s", "-", "(too few)", "-")
	}
	return fmt.Sprintf("%9.1f%%%s %12s %7d", 100*r.Fraction(), star(r), formatP(r.PValue()), r.Pairs)
}

// star marks a result that is not significant, as the paper's tables do.
func star(r core.Result) string {
	if r.Sig.Significant() {
		return ""
	}
	return "*"
}

// band is a half-open (Lo, Hi] bin of a connection-quality column, as
// Tables 7 (latency) and 8 (loss) bin their groups. layout renders the
// bounds after scaling them to the table's display unit.
type band struct {
	Lo, Hi float64
	scale  float64
	layout string
}

// latencyBand is a latency bin in seconds, shown in milliseconds.
func latencyBand(lo, hi float64) band { return band{lo, hi, 1000, "(%.0f, %.0f] ms"} }

// lossBand is a packet-loss bin as a fraction, shown in percent.
func lossBand(lo, hi float64) band { return band{lo, hi, 100, "(%.3g%%, %.3g%%]"} }

func (b band) String() string { return fmt.Sprintf(b.layout, b.Lo*b.scale, b.Hi*b.scale) }

// of selects the rows of v whose col value falls in the band.
func (b band) of(v dataset.View, col []float64) dataset.View {
	var idx []int32
	for _, i := range v.Idx {
		if col[i] > b.Lo && col[i] <= b.Hi {
			idx = append(idx, i)
		}
	}
	return dataset.View{P: v.P, Idx: idx}
}
