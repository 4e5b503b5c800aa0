package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"
)

func TestScheduleSameSeedSameSchedule(t *testing.T) {
	mix := []float64{0.885, 0.10, 0.015}
	a := Schedule(7, 1, 50, 1000, mix)
	b := Schedule(7, 1, 50, 1000, mix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and stream gave different schedules")
	}
	if reflect.DeepEqual(a, Schedule(8, 1, 50, 1000, mix)) {
		t.Fatal("a different seed gave the same schedule")
	}
	if reflect.DeepEqual(a, Schedule(7, 2, 50, 1000, mix)) {
		t.Fatal("a different stream gave the same schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	mix := []float64{0.885, 0.10, 0.015}
	if c := MixCounts([]float64{0.45, 0.45, 0.10}); !reflect.DeepEqual(c, []int{9, 9, 2}) {
		t.Fatalf("MixCounts of 45/45/10 = %v, want [9 9 2]", c)
	}
	const block = 200
	if c := MixCounts(mix); !reflect.DeepEqual(c, []int{177, 20, 3}) {
		t.Fatalf("MixCounts = %v, want [177 20 3]", c)
	}
	n := 5 * block
	s := Schedule(3, 1, 50, n, mix)
	if len(s) != n {
		t.Fatalf("got %d arrivals, want %d", len(s), n)
	}
	// Every block holds each class's exact share, numbered in order.
	for b := 0; b < n/block; b++ {
		counts := make([]int, len(mix))
		for _, a := range s[b*block : (b+1)*block] {
			counts[a.Class]++
		}
		if !reflect.DeepEqual(counts, []int{177, 20, 3}) {
			t.Fatalf("block %d: class counts %v", b, counts)
		}
	}
	nth := make([]int, len(mix))
	for i, a := range s {
		if a.Seq != i || a.Nth != nth[a.Class] {
			t.Fatalf("arrival %d: Seq %d Nth %d, want %d %d", i, a.Seq, a.Nth, i, nth[a.Class])
		}
		nth[a.Class]++
		if i > 0 && a.Due < s[i-1].Due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
	}
	// Poisson at 50/s: the mean gap is 20 ms.
	if mean := s[n-1].Due.Seconds() / float64(n); math.Abs(mean-0.02) > 0.003 {
		t.Fatalf("mean gap %.4fs, want about 0.02s", mean)
	}
}

func TestTailNamesOnlyPercentilesWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{200, 0.95, true}, {199, 0.95, false},
		{100, 0.9, true}, {99, 0.9, false},
		{40, 0.75, true}, {39, 0.75, false},
	} {
		if got := TailOK(c.n, c.q); got != c.want {
			t.Errorf("TailOK(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	xs := make([]float64, 250)
	for i := range xs {
		xs[i] = float64(i)
	}
	q, v, ok := Tail(xs)
	if !ok || q != 0.95 || v != Quantile(append([]float64(nil), xs...), 0.95) {
		t.Fatalf("Tail of 250 samples = p%v %v %v, want the p95", q*100, v, ok)
	}
	if _, _, ok := Tail(xs[:39]); ok {
		t.Fatal("Tail named a percentile of 39 samples")
	}
}

func TestOutcomeErrorClasses(t *testing.T) {
	for _, c := range []struct {
		name string
		o    Outcome
		fail bool
	}{
		{"200", Outcome{Status: 200}, false},
		{"201 upload", Outcome{Status: 201, Want: 201}, false},
		{"429 shed", Outcome{Status: http.StatusTooManyRequests}, true},
		{"429 never expected", Outcome{Status: http.StatusTooManyRequests, Want: http.StatusTooManyRequests}, true},
		{"expected 422", Outcome{Status: 422, Want: 422}, false},
		{"over-budget upload accepted", Outcome{Status: 201, Want: 422}, true},
		{"unexpected 422", Outcome{Status: 422}, true},
		{"500", Outcome{Status: 500}, true},
		{"no response", Outcome{Err: errors.New("connection refused")}, true},
		{"wrong body", Outcome{Status: 200, Err: errors.New("body differs")}, true},
	} {
		if got := c.o.Failed(); got != c.fail {
			t.Errorf("%s: Failed() = %v, want %v", c.name, got, c.fail)
		}
	}
}

func TestOpenLoopTimesFromDueAndDropsPastCutoff(t *testing.T) {
	sched := []Arrival{{Due: 0, Seq: 0}, {Due: time.Millisecond, Seq: 1}, {Due: 2 * time.Millisecond, Seq: 2}}
	// One sender and a 30 ms request: the second and third queue behind
	// the first, and the third starts past the cutoff.
	res := OpenLoop(context.Background(), sched, 1, 40*time.Millisecond, func(context.Context, Arrival) Outcome {
		time.Sleep(30 * time.Millisecond)
		return Outcome{Status: 200}
	})
	if res[1].Latency() < 55*time.Millisecond {
		t.Errorf("queued request latency %v, want it timed from its due time (about 59ms)", res[1].Latency())
	}
	if res[1].Late != 0 {
		t.Errorf("a queued request counted %v of generator lateness", res[1].Late)
	}
	if res[2].Sent >= 0 {
		t.Errorf("request past the cutoff was sent at %v", res[2].Sent)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "pipeline.pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "synth.build", Start: 0, End: 60 * ms},
		{ID: 3, Parent: 1, Name: "dataset.save", Start: 50 * ms, End: 70 * ms}, // overlaps build
		{ID: 4, Parent: 3, Name: "dataset.encode", Start: 55 * ms, End: 65 * ms},
	}
	got := SelfTime(spans)
	want := map[string]time.Duration{"pipeline": 30 * ms, "synth": 60 * ms, "dataset": 20 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelfTime = %v, want %v", got, want)
	}
}

func TestResolveLadderInterpolatesLogMedian(t *testing.T) {
	pass, fail := rung{rate: 100, p50: 10, ok: true}, rung{rate: 120, p50: 1000}
	// ln 100 lies halfway between ln 10 and ln 1000.
	if rps, ok := resolveLadder(pass, &fail); !ok || math.Abs(rps-110) > 1e-9 {
		t.Fatalf("resolveLadder = %v %v, want 110 true", rps, ok)
	}
	backlog := rung{rate: 120, p50: 50} // failed on backlog, not latency
	if rps, ok := resolveLadder(pass, &backlog); !ok || rps != 100 {
		t.Fatalf("rung failed on backlog: resolveLadder = %v %v, want 100 true", rps, ok)
	}
	if _, ok := resolveLadder(pass, nil); ok {
		t.Fatal("a ladder whose top rung passed was resolved")
	}
	if _, ok := resolveLadder(rung{}, &fail); ok {
		t.Fatal("a ladder whose first rung failed was resolved")
	}
}
