package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
)

// Quasi-experimental design (QED): the alternative the paper weighs against
// natural experiments (Krishnan & Sitaraman's stream-quality study). Where
// nearest-neighbor matching finds, for each treated unit, its closest
// control under a caliper, QED stratifies both populations into discrete
// confounder cells and pairs treated/control units within identical cells.
// Results should broadly agree; QED trades some pair yield (cells must
// match exactly) for exact in-cell comparability and O(n) matching.

// QEDResult extends the standard experiment result with stratification
// diagnostics.
type QEDResult struct {
	Result
	// Cells is the number of populated strata; PairedCells how many
	// produced at least one pair.
	Cells       int
	PairedCells int
}

// String renders the result with its stratification summary.
func (r QEDResult) String() string {
	return fmt.Sprintf("%s [%d/%d cells]", r.Result.String(), r.PairedCells, r.Cells)
}

// QED is a stratified quasi-experiment specification. Treatment and
// Control are views over one panel.
type QED struct {
	Name      string
	Treatment dataset.View
	Control   dataset.View
	// Confounders are discretized into multiplicative bins of width
	// binRatio.
	Confounders []Confounder
	Outcome     dataset.Column
}

// binRatio is the width of a QED confounder bin: a pair in the same bin
// differs by at most this factor, comparable to the 25% caliper at ratio
// 1.25².
const binRatio = 1.5

// cellKey discretizes the confounder vector of one panel row; cols holds
// the confounders' columns, in Confounders order.
func (q QED) cellKey(cols [][]float64, row int32) string {
	var b strings.Builder
	for i, c := range q.Confounders {
		if i > 0 {
			b.WriteByte('|')
		}
		v := cols[i][row]
		switch {
		case v <= c.Floor:
			b.WriteString("lo") // everything under the floor is one bin
		default:
			idx := int(math.Floor(math.Log(v) / math.Log(binRatio)))
			fmt.Fprintf(&b, "%d", idx)
		}
	}
	return b.String()
}

// Run stratifies, pairs within cells, and evaluates the hypothesis that
// treated units show higher outcomes.
func (q QED) Run(rng *randx.Source) (QEDResult, error) {
	if q.Outcome == nil {
		return QEDResult{}, fmt.Errorf("core: QED %q has no outcome metric", q.Name)
	}
	p, err := commonPanel(q.Treatment, q.Control)
	if err != nil {
		return QEDResult{}, fmt.Errorf("core: QED %q: %w", q.Name, err)
	}
	type cell struct {
		treated []int32
		control []int32
	}
	cells := map[string]*cell{}
	var cols [][]float64
	var outcome []float64
	if p != nil {
		for _, c := range q.Confounders {
			cols = append(cols, c.Value(p))
		}
		outcome = q.Outcome(p)
	}
	for _, i := range q.Treatment.Idx {
		k := q.cellKey(cols, i)
		if cells[k] == nil {
			cells[k] = &cell{}
		}
		cells[k].treated = append(cells[k].treated, i)
	}
	for _, i := range q.Control.Idx {
		k := q.cellKey(cols, i)
		if cells[k] == nil {
			cells[k] = &cell{}
		}
		cells[k].control = append(cells[k].control, i)
	}

	// Deterministic cell order, then random pairing within each cell.
	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	holds, pairs, pairedCells := 0, 0, 0
	for _, k := range keys {
		c := cells[k]
		n := len(c.treated)
		if len(c.control) < n {
			n = len(c.control)
		}
		if n == 0 {
			continue
		}
		pairedCells++
		tOrder := permute(len(c.treated), rng)
		cOrder := permute(len(c.control), rng)
		for i := 0; i < n; i++ {
			pairs++
			if outcome[c.treated[tOrder[i]]] > outcome[c.control[cOrder[i]]] {
				holds++
			}
		}
	}
	if pairs < minPairs {
		return QEDResult{}, fmt.Errorf("%w: QED %q paired %d, need %d", ErrTooFewPairs, q.Name, pairs, minPairs)
	}
	bin, err := stats.BinomialTest(holds, pairs)
	if err != nil {
		return QEDResult{}, err
	}
	return QEDResult{
		Result: Result{
			Name:     q.Name,
			Pairs:    pairs,
			Holds:    holds,
			Binomial: bin,
			Sig:      bin.Assess(),
		},
		Cells:       len(cells),
		PairedCells: pairedCells,
	}, nil
}

func permute(n int, rng *randx.Source) []int {
	if rng != nil {
		return rng.Perm(n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
