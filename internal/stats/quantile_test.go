package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestQuantileType7(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, "Quantile", got, c.want, 1e-12)
	}
}

func TestQuantileUnsortedInputUnchanged(t *testing.T) {
	xs := []float64{9, 1, 5}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileEdges(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Error("Quantile(nil) should be ErrEmpty")
	}
	got, _ := Quantile([]float64{7}, 0.3)
	if got != 7 {
		t.Errorf("singleton quantile = %v, want 7", got)
	}
	nan, _ := Quantile([]float64{1, 2}, math.NaN())
	if !math.IsNaN(nan) {
		t.Error("Quantile(NaN p) should be NaN")
	}
	lo, _ := Quantile([]float64{1, 2}, -1)
	hi, _ := Quantile([]float64{1, 2}, 2)
	if lo != 1 || hi != 2 {
		t.Error("out-of-range p should clamp to extremes")
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	med, _ := Median(xs)
	almost(t, "Median", med, 55, 1e-12)
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, p1, p2 float64) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
		}
		p1 = math.Mod(math.Abs(p1), 1)
		p2 = math.Mod(math.Abs(p2), 1)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		q1, err1 := Quantile(vals, p1)
		q2, err2 := Quantile(vals, p2)
		return err1 == nil && err2 == nil && q1 <= q2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileWithinRangeProperty(t *testing.T) {
	f := func(vals []float64, p float64) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
		}
		p = math.Mod(math.Abs(p), 1)
		q, err := Quantile(vals, p)
		if err != nil {
			return false
		}
		lo, hi, _ := MinMax(vals)
		return q >= lo && q <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 101 {
		t.Errorf("N = %d", s.N)
	}
	almost(t, "Mean", s.Mean, 50, 1e-12)
	almost(t, "Median", s.Median, 50, 1e-12)
	almost(t, "P95", s.P95, 95, 1e-12)
	almost(t, "P05", s.P05, 5, 1e-12)
	if s.Min != 0 || s.Max != 100 {
		t.Errorf("range = [%v, %v]", s.Min, s.Max)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Error("Summarize(nil) should be ErrEmpty")
	}
	one, err := Summarize([]float64{3})
	if err != nil || one.StdDev != 0 {
		t.Errorf("Summarize singleton: %+v err %v", one, err)
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := e.Quantile(0), e.Quantile(1); lo != 1 || hi != 3 {
		t.Errorf("range = [%v, %v]", lo, hi)
	}
	if _, err := NewECDF(nil); err != ErrEmpty {
		t.Error("NewECDF(nil) should be ErrEmpty")
	}
}

func TestECDFQuantileAgreesWithSort(t *testing.T) {
	vals := []float64{5, 3, 8, 1, 9, 2}
	e, _ := NewECDF(vals)
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, p := range []float64{0, 0.33, 0.5, 0.77, 1} {
		want, _ := Quantile(sorted, p)
		if got := e.Quantile(p); got != want {
			t.Errorf("ECDF.Quantile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestRenderQuantiles(t *testing.T) {
	e, _ := NewECDF([]float64{1, 2, 3})
	out := e.RenderQuantiles(nil)
	if out == "" || !strings.Contains(out, "p50=2") {
		t.Errorf("RenderQuantiles = %q", out)
	}
}
