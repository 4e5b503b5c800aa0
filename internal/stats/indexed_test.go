package stats

import (
	"errors"
	"math"
	"testing"
)

// indexedFixture is a column plus a selection over it; the indexed
// aggregates must be bit-identical to their slice twins applied to the
// gathered values.
func indexedFixture() (xs []float64, idx []int32, gathered []float64) {
	xs = make([]float64, 200)
	for i := range xs {
		// Deterministic, irregular values spanning several magnitudes.
		xs[i] = math.Sin(float64(i)*1.7)*1e6 + float64(i%13)*0.003
	}
	for i := 3; i < len(xs); i += 7 {
		idx = append(idx, int32(i))
	}
	gathered = make([]float64, len(idx))
	for k, i := range idx {
		gathered[k] = xs[i]
	}
	return xs, idx, gathered
}

func TestIndexedAggregatesBitIdentical(t *testing.T) {
	xs, idx, g := indexedFixture()

	if got, want := SumIdx(xs, idx), Sum(g); got != want {
		t.Fatalf("SumIdx = %v, Sum = %v", got, want)
	}

	gotM, err1 := MeanIdx(xs, idx)
	wantM, err2 := Mean(g)
	if err1 != nil || err2 != nil || gotM != wantM {
		t.Fatalf("MeanIdx = %v (%v), Mean = %v (%v)", gotM, err1, wantM, err2)
	}

	gotV, err1 := VarianceIdx(xs, idx)
	wantV, err2 := Variance(g)
	if err1 != nil || err2 != nil || gotV != wantV {
		t.Fatalf("VarianceIdx = %v (%v), Variance = %v (%v)", gotV, err1, wantV, err2)
	}

	gotS, err1 := StdDevIdx(xs, idx)
	wantS, err2 := StdDev(g)
	if err1 != nil || err2 != nil || gotS != wantS {
		t.Fatalf("StdDevIdx = %v (%v), StdDev = %v (%v)", gotS, err1, wantS, err2)
	}

	for _, level := range []float64{0.90, 0.95, 0.99} {
		gotCI, err1 := MeanCIIdx(xs, idx, level)
		wantCI, err2 := MeanCI(g, level)
		if err1 != nil || err2 != nil || gotCI != wantCI {
			t.Fatalf("level %v: MeanCIIdx = %+v (%v), MeanCI = %+v (%v)", level, gotCI, err1, wantCI, err2)
		}
	}
}

func TestIndexedAggregatesEdgeCases(t *testing.T) {
	xs := []float64{1, 2, 3}

	if _, err := MeanIdx(xs, nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("MeanIdx(empty) err = %v, want ErrEmpty", err)
	}
	if _, err := VarianceIdx(xs, nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("VarianceIdx(empty) err = %v, want ErrEmpty", err)
	}
	if _, err := VarianceIdx(xs, []int32{1}); !errors.Is(err, ErrShortSample) {
		t.Fatalf("VarianceIdx(n=1) err = %v, want ErrShortSample", err)
	}
	if _, err := MeanCIIdx(xs, nil, 0.95); !errors.Is(err, ErrEmpty) {
		t.Fatalf("MeanCIIdx(empty) err = %v, want ErrEmpty", err)
	}

	// n == 1: degenerate interval at the single point, same as MeanCI.
	gotCI, err := MeanCIIdx(xs, []int32{2}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	wantCI, err := MeanCI(xs[2:3], 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if gotCI != wantCI {
		t.Fatalf("n=1: MeanCIIdx = %+v, MeanCI = %+v", gotCI, wantCI)
	}

	// Sparse duplicate indices are legal: the aggregate just visits the
	// row twice, like a gathered slice with the value repeated.
	dup := []int32{0, 0, 2}
	gd := []float64{xs[0], xs[0], xs[2]}
	gotV, _ := VarianceIdx(xs, dup)
	wantV, _ := Variance(gd)
	if gotV != wantV {
		t.Fatalf("duplicate idx: VarianceIdx = %v, Variance = %v", gotV, wantV)
	}
}
