package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
)

func qedPopulations(effect bool) (treated, control []*dataset.User) {
	rng := randx.New(17)
	for i := 0; i < 300; i++ {
		rtt := 0.03 + 0.15*rng.Float64()
		loss := 0.05 + 0.3*rng.Float64()
		price := 15 + 40*rng.Float64()
		peakT := 3 * (0.5 + rng.Float64())
		peakC := 3 * (0.5 + rng.Float64())
		if effect {
			peakT *= 1.6
		}
		treated = append(treated, mkUser(int64(i), rtt, loss, price, 10, peakT))
		control = append(control, mkUser(int64(1000+i), rtt*(0.9+0.2*rng.Float64()), loss, price, 5, peakC))
	}
	return treated, control
}

func qedSpec(treated, control []*dataset.User) QED {
	tv, cv := views(treated, control)
	return QED{
		Name:      "qed",
		Treatment: tv,
		Control:   cv,
		Confounders: []Confounder{
			ConfounderRTT(), ConfounderLoss(), ConfounderAccessPrice(),
		},
		Outcome: dataset.PeakUsage,
	}
}

func TestQEDDetectsEffect(t *testing.T) {
	treated, control := qedPopulations(true)
	res, err := qedSpec(treated, control).Run(randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sig.Significant() {
		t.Errorf("QED missed a ×1.6 effect: %v", res)
	}
	if res.Fraction() < 0.6 {
		t.Errorf("fraction %.2f too weak", res.Fraction())
	}
	if res.Cells < 5 || res.PairedCells == 0 || res.PairedCells > res.Cells {
		t.Errorf("implausible stratification: %d/%d cells", res.PairedCells, res.Cells)
	}
	if !strings.Contains(res.String(), "cells") {
		t.Errorf("String() = %q", res.String())
	}
}

func TestQEDPlaceboNull(t *testing.T) {
	treated, control := qedPopulations(false)
	res, err := qedSpec(treated, control).Run(randx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Fraction()-0.5) > 0.08 {
		t.Errorf("placebo fraction %.2f, want ≈0.5", res.Fraction())
	}
	if res.Sig.Significant() {
		t.Errorf("placebo significant: %v", res)
	}
}

func TestQEDAgreesWithMatching(t *testing.T) {
	// The two designs must reach the same verdict on the same populations.
	treated, control := qedPopulations(true)
	qres, err := qedSpec(treated, control).Run(randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	tv, cv := views(treated, control)
	exp := Experiment{
		Name:      "nn",
		Treatment: tv,
		Control:   cv,
		Matcher:   Matcher{Confounders: []Confounder{ConfounderRTT(), ConfounderLoss(), ConfounderAccessPrice()}},
		Outcome:   dataset.PeakUsage,
	}
	nres, err := exp.Run(randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if qres.Sig.Significant() != nres.Sig.Significant() {
		t.Errorf("designs disagree: QED %v vs NN %v", qres, nres)
	}
	if math.Abs(qres.Fraction()-nres.Fraction()) > 0.12 {
		t.Errorf("effect sizes diverge: QED %.2f vs NN %.2f", qres.Fraction(), nres.Fraction())
	}
}

func TestQEDValidation(t *testing.T) {
	if _, err := (QED{Name: "x"}).Run(nil); err == nil {
		t.Error("missing outcome should error")
	}
	q := qedSpec([]*dataset.User{mkUser(1, 0.05, 0.1, 25, 10, 1)}, []*dataset.User{mkUser(2, 0.4, 1.5, 80, 5, 1)})
	_, err := q.Run(nil)
	if !errors.Is(err, ErrTooFewPairs) {
		t.Errorf("want ErrTooFewPairs, got %v", err)
	}
	_, q.Control = views(nil, []*dataset.User{mkUser(3, 0.05, 0.1, 25, 5, 1)})
	if _, err := q.Run(nil); err == nil || !strings.Contains(err.Error(), "different panels") {
		t.Errorf("want a panel-mismatch error, got %v", err)
	}
}

func TestQEDDeterministicWithoutRNG(t *testing.T) {
	treated, control := qedPopulations(true)
	q := qedSpec(treated, control)
	a, err := q.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Holds != b.Holds || a.Pairs != b.Pairs {
		t.Errorf("nil-rng QED not deterministic: %v vs %v", a, b)
	}
}

func TestQEDCellKeyFloors(t *testing.T) {
	q := QED{Confounders: []Confounder{ConfounderLoss()}}
	v := populations([]*dataset.User{
		mkUser(1, 0.05, 0.0, 25, 10, 1),
		mkUser(2, 0.05, 0.04, 25, 10, 1), // 0.0004 < floor 0.0005
		mkUser(3, 0.05, 2.0, 25, 10, 1),
	})[0]
	cols := [][]float64{ConfounderLoss().Value(v.P)}
	// Values at or below the floor share the "lo" bin.
	if q.cellKey(cols, 0) != q.cellKey(cols, 1) {
		t.Error("sub-floor losses should share a bin")
	}
	if q.cellKey(cols, 0) == q.cellKey(cols, 2) {
		t.Error("2% loss must not share the sub-floor bin")
	}
}
