package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBenjaminiHochbergKnownCase(t *testing.T) {
	// Classic worked example: m=6, q=0.05.
	pvals := []float64{0.005, 0.009, 0.05, 0.10, 0.30, 0.90}
	disc, err := BenjaminiHochberg(pvals)
	if err != nil {
		t.Fatal(err)
	}
	// Thresholds: 0.0083, 0.0167, 0.025, 0.033, 0.0417, 0.05.
	// p(1)=0.005 ≤ 0.0083 ✓; p(2)=0.009 ≤ 0.0167 ✓; p(3)=0.05 > 0.025 ✗ …
	want := []bool{true, true, false, false, false, false}
	for i := range want {
		if disc[i] != want[i] {
			t.Errorf("discovery[%d] = %v, want %v", i, disc[i], want[i])
		}
	}
}

func TestBenjaminiHochbergStepUp(t *testing.T) {
	// The step-up property: a larger p-value can rescue smaller ones. With
	// p = {0.04, 0.045, 0.049} and q=0.05, the rank-3 test passes
	// (0.049 ≤ 3·0.05/3) so ALL are discoveries.
	disc, err := BenjaminiHochberg([]float64{0.04, 0.045, 0.049})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range disc {
		if !d {
			t.Errorf("step-up should mark all discoveries, index %d false", i)
		}
	}
}

func TestBenjaminiHochbergEdges(t *testing.T) {
	if _, err := BenjaminiHochberg(nil); err != ErrEmpty {
		t.Error("empty input should error")
	}
	if _, err := BenjaminiHochberg([]float64{0.5, math.NaN()}); err == nil {
		t.Error("NaN p-value should error")
	}
	if _, err := BenjaminiHochberg([]float64{1.5}); err == nil {
		t.Error("out-of-range p-value should error")
	}
	// All-null family: nothing discovered.
	disc, _ := BenjaminiHochberg([]float64{0.5, 0.7, 0.9})
	for _, d := range disc {
		if d {
			t.Error("null family produced a discovery")
		}
	}
}

func TestBenjaminiHochbergMonotoneProperty(t *testing.T) {
	// Discoveries form a prefix of the sorted p-values: if p_i is a
	// discovery, every smaller p must be too.
	f := func(seed int64) bool {
		rng := newTestRand(seed)
		n := 1 + rng.IntN(30)
		pv := make([]float64, n)
		for i := range pv {
			pv[i] = rng.Float64()
		}
		disc, err := BenjaminiHochberg(pv)
		if err != nil {
			return false
		}
		for i := range pv {
			if !disc[i] {
				continue
			}
			for j := range pv {
				if pv[j] < pv[i] && !disc[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
