package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// mkUser builds a minimal user for matching tests.
func mkUser(id int64, rtt, lossPct, price, capMbps, peakMbps float64) *dataset.User {
	return &dataset.User{
		ID:          id,
		Country:     "US",
		RTT:         rtt,
		Loss:        unit.LossFromPercent(lossPct),
		AccessPrice: unit.USD(price),
		Capacity:    unit.MbpsOf(capMbps),
		Usage: dataset.UsageSummary{
			Peak:     unit.MbpsOf(peakMbps),
			PeakNoBT: unit.MbpsOf(peakMbps),
			Mean:     unit.MbpsOf(peakMbps / 5),
			MeanNoBT: unit.MbpsOf(peakMbps / 5),
		},
	}
}

// populations loads each user list into one shared panel, in order, and
// returns one view per list.
func populations(lists ...[]*dataset.User) []dataset.View {
	p := dataset.NewPanel(0)
	views := make([]dataset.View, len(lists))
	for k, users := range lists {
		views[k].P = p
		for _, u := range users {
			views[k].Idx = append(views[k].Idx, int32(p.Len()))
			p.Append(u)
		}
	}
	return views
}

// views is populations for the common treated/control case.
func views(treated, control []*dataset.User) (dataset.View, dataset.View) {
	v := populations(treated, control)
	return v[0], v[1]
}

func qualityMatcher() Matcher {
	return Matcher{Confounders: []Confounder{ConfounderRTT(), ConfounderLoss(), ConfounderAccessPrice()}}
}

func TestWithinCaliper(t *testing.T) {
	// The paper's own example: latencies of 50 and 62 ms and prices of $25
	// and $30 are "sufficiently similar".
	if !withinCaliper(0.050, 0.062, 0.25, 0) {
		t.Error("50 vs 62 ms must be within the 25% caliper")
	}
	if !withinCaliper(25, 30, 0.25, 0) {
		t.Error("$25 vs $30 must be within the 25% caliper")
	}
	if withinCaliper(25, 34, 0.25, 0) {
		t.Error("$25 vs $34 must exceed the 25% caliper")
	}
	// Floor admits near-zero pairs that a pure ratio would reject.
	if !withinCaliper(0, 0.0004, 0.25, 0.0005) {
		t.Error("loss floor should admit near-zero pairs")
	}
	if withinCaliper(0, 0.01, 0.25, 0.0005) {
		t.Error("floor must not admit distant pairs")
	}
}

func TestMatchRespectsCaliper(t *testing.T) {
	m := qualityMatcher()
	treated := []*dataset.User{mkUser(1, 0.050, 0.1, 25, 10, 3)}
	controls := []*dataset.User{
		mkUser(2, 0.200, 0.1, 25, 5, 1),  // RTT too far
		mkUser(3, 0.055, 0.9, 25, 5, 1),  // loss too far
		mkUser(4, 0.055, 0.11, 60, 5, 1), // price too far
	}
	tv, cv := views(treated, controls)
	if pairs := m.Match(tv, cv, nil); len(pairs) != 0 {
		t.Fatalf("matched %d pairs across caliper violations", len(pairs))
	}
	controls = append(controls, mkUser(5, 0.058, 0.12, 28, 5, 1))
	tv, cv = views(treated, controls)
	pairs := m.Match(tv, cv, nil)
	if len(pairs) != 1 || cv.P.ID[pairs[0].Control] != 5 {
		t.Fatalf("expected the single eligible control, got %+v", pairs)
	}
}

func TestMatchPicksNearest(t *testing.T) {
	m := Matcher{Confounders: []Confounder{ConfounderRTT()}}
	treated := []*dataset.User{mkUser(1, 0.100, 0, 0, 0, 0)}
	controls := []*dataset.User{
		mkUser(2, 0.120, 0, 0, 0, 0),
		mkUser(3, 0.101, 0, 0, 0, 0),
		mkUser(4, 0.110, 0, 0, 0, 0),
	}
	tv, cv := views(treated, controls)
	pairs := m.Match(tv, cv, nil)
	if len(pairs) != 1 || cv.P.ID[pairs[0].Control] != 3 {
		t.Fatalf("nearest neighbor not chosen: %+v", pairs)
	}
}

func TestMatchWithoutReplacement(t *testing.T) {
	m := Matcher{Confounders: []Confounder{ConfounderRTT()}}
	treated := []*dataset.User{
		mkUser(1, 0.100, 0, 0, 0, 0),
		mkUser(2, 0.100, 0, 0, 0, 0),
		mkUser(3, 0.100, 0, 0, 0, 0),
	}
	controls := []*dataset.User{
		mkUser(10, 0.100, 0, 0, 0, 0),
		mkUser(11, 0.101, 0, 0, 0, 0),
	}
	tv, cv := views(treated, controls)
	pairs := m.Match(tv, cv, randx.New(1))
	if len(pairs) != 2 {
		t.Fatalf("expected 2 pairs (control exhaustion), got %d", len(pairs))
	}
	if pairs[0].Control == pairs[1].Control {
		t.Fatal("control reused")
	}
}

func TestMatchCaliperProperty(t *testing.T) {
	// Every produced pair satisfies every confounder caliper, whatever the
	// populations look like.
	m := qualityMatcher()
	f := func(seed int64) bool {
		rng := randx.New(uint64(seed))
		var treated, controls []*dataset.User
		for i := 0; i < 30; i++ {
			treated = append(treated, mkUser(int64(i), 0.02+rng.Float64()*0.5, rng.Float64()*2, 10+rng.Float64()*100, 1, 1))
			controls = append(controls, mkUser(int64(100+i), 0.02+rng.Float64()*0.5, rng.Float64()*2, 10+rng.Float64()*100, 1, 1))
		}
		tv, cv := views(treated, controls)
		pairs := m.Match(tv, cv, rng.Split("order"))
		for _, p := range pairs {
			for _, c := range m.Confounders {
				vals := c.Value(tv.P)
				if !withinCaliper(vals[p.Treated], vals[p.Control], DefaultCaliper, c.Floor) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCheckBalance(t *testing.T) {
	m := Matcher{Confounders: []Confounder{ConfounderRTT()}}
	v := populations([]*dataset.User{
		mkUser(1, 0.10, 0, 0, 0, 0), mkUser(2, 0.12, 0, 0, 0, 0),
		mkUser(3, 0.20, 0, 0, 0, 0), mkUser(4, 0.18, 0, 0, 0, 0),
	})[0]
	pairs := []Pair{{Treated: 0, Control: 1}, {Treated: 2, Control: 3}}
	b := m.CheckBalance(v.P, pairs)
	if len(b) != 1 {
		t.Fatalf("balance rows = %d", len(b))
	}
	if math.Abs(b[0].MeanTreated-0.15) > 1e-12 || math.Abs(b[0].MeanControl-0.15) > 1e-12 {
		t.Errorf("balance = %+v", b[0])
	}
	if !strings.Contains(b[0].String(), "latency") {
		t.Errorf("balance string = %q", b[0].String())
	}
}

func TestExperimentDetectsRealEffect(t *testing.T) {
	// Construct a population where treatment (higher capacity) genuinely
	// raises the outcome; the experiment must find it.
	rng := randx.New(3)
	var treated, control []*dataset.User
	for i := 0; i < 120; i++ {
		rtt := 0.03 + 0.1*rng.Float64()
		loss := 0.05 + 0.2*rng.Float64()
		price := 20 + 30*rng.Float64()
		// Treated users: capacity 10, peak ≈ 4 with noise; control users:
		// capacity 5, peak ≈ 2.2 with noise.
		treated = append(treated, mkUser(int64(i), rtt, loss, price, 10, 4*(0.5+rng.Float64())))
		control = append(control, mkUser(int64(1000+i), rtt*(0.95+0.1*rng.Float64()), loss, price, 5, 2.2*(0.5+rng.Float64())))
	}
	tv, cv := views(treated, control)
	exp := Experiment{
		Name:      "capacity",
		Treatment: tv,
		Control:   cv,
		Matcher:   qualityMatcher(),
		Outcome:   dataset.PeakUsage,
	}
	res, err := exp.Run(randx.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs < 60 {
		t.Fatalf("only %d pairs matched", res.Pairs)
	}
	if !res.Sig.Significant() {
		t.Errorf("real effect not detected: %v", res)
	}
	if res.Fraction() < 0.6 {
		t.Errorf("fraction = %v, want clearly above chance", res.Fraction())
	}
}

func TestExperimentPlaceboIsNull(t *testing.T) {
	// Identical outcome distributions: the hypothesis must hold ≈50% of
	// the time and fail significance. This is the engine's no-false-effect
	// guarantee.
	rng := randx.New(5)
	var treated, control []*dataset.User
	for i := 0; i < 400; i++ {
		rtt := 0.03 + 0.1*rng.Float64()
		treated = append(treated, mkUser(int64(i), rtt, 0.1, 25, 10, 3*(0.5+rng.Float64())))
		control = append(control, mkUser(int64(1000+i), rtt, 0.1, 25, 10, 3*(0.5+rng.Float64())))
	}
	tv, cv := views(treated, control)
	exp := Experiment{
		Name:      "placebo",
		Treatment: tv,
		Control:   cv,
		Matcher:   Matcher{Confounders: []Confounder{ConfounderRTT()}},
		Outcome:   dataset.PeakUsage,
	}
	res, err := exp.Run(randx.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Fraction()-0.5) > 0.07 {
		t.Errorf("placebo fraction = %v, want ≈0.5", res.Fraction())
	}
	if res.Sig.Significant() {
		t.Errorf("placebo came out significant: %v", res)
	}
}

func TestExperimentErrors(t *testing.T) {
	exp := Experiment{Name: "x", Outcome: nil}
	if _, err := exp.Run(nil); err == nil {
		t.Error("missing outcome should error")
	}
	tv, cv := views([]*dataset.User{mkUser(1, 0.05, 0.1, 25, 10, 1)}, []*dataset.User{mkUser(2, 0.05, 0.1, 25, 5, 1)})
	exp = Experiment{
		Name:      "thin",
		Treatment: tv,
		Control:   cv,
		Matcher:   qualityMatcher(),
		Outcome:   dataset.PeakUsage,
	}
	_, err := exp.Run(nil)
	if !errors.Is(err, ErrTooFewPairs) {
		t.Errorf("want ErrTooFewPairs, got %v", err)
	}
	// Populations drawn from two different panels cannot be paired.
	_, other := views(nil, []*dataset.User{mkUser(3, 0.05, 0.1, 25, 5, 1)})
	exp.Control = other
	if _, err := exp.Run(nil); err == nil || !strings.Contains(err.Error(), "different panels") {
		t.Errorf("want a panel-mismatch error, got %v", err)
	}
	// An empty view matches any panel: the run fails for lack of pairs.
	exp.Control = dataset.View{}
	if _, err := exp.Run(nil); !errors.Is(err, ErrTooFewPairs) {
		t.Errorf("empty control: want ErrTooFewPairs, got %v", err)
	}
}

func TestRunPaired(t *testing.T) {
	mkSwitch := func(before, after float64) dataset.Switch {
		return dataset.Switch{
			FromDown: unit.MbpsOf(1), ToDown: unit.MbpsOf(2),
			Before: dataset.UsageSummary{Mean: unit.MbpsOf(before), MeanNoBT: unit.MbpsOf(before)},
			After:  dataset.UsageSummary{Mean: unit.MbpsOf(after), MeanNoBT: unit.MbpsOf(after)},
		}
	}
	var switches []dataset.Switch
	// 70 increases, 30 decreases: fraction 0.70, strongly significant.
	for i := 0; i < 70; i++ {
		switches = append(switches, mkSwitch(1, 2))
	}
	for i := 0; i < 30; i++ {
		switches = append(switches, mkSwitch(2, 1))
	}
	res, err := RunPaired("upgrades", switches, PairedMeanNoBT)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds != 70 || res.Pairs != 100 {
		t.Fatalf("holds/pairs = %d/%d", res.Holds, res.Pairs)
	}
	if !res.Sig.Significant() {
		t.Errorf("70/100 should be significant: %v", res)
	}
	if _, err := RunPaired("empty", nil, PairedMean); err == nil {
		t.Error("empty switches should error")
	}
}

func TestPairedMetrics(t *testing.T) {
	s := dataset.UsageSummary{
		Mean: 1, Peak: 2, MeanNoBT: 3, PeakNoBT: 4,
	}
	if PairedMean(s) != 1 || PairedPeak(s) != 2 || PairedMeanNoBT(s) != 3 || PairedPeakNoBT(s) != 4 {
		t.Error("paired metric extraction wrong")
	}
}

func TestResultString(t *testing.T) {
	var switches []dataset.Switch
	for i := 0; i < 100; i++ {
		after := 2.0
		if i < 30 {
			after = 0.5
		}
		switches = append(switches, dataset.Switch{
			Before: dataset.UsageSummary{Mean: unit.MbpsOf(1)},
			After:  dataset.UsageSummary{Mean: unit.MbpsOf(after)},
		})
	}
	res, err := RunPaired("demo", switches, PairedMean)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "70.0%") || !strings.Contains(s, "demo") {
		t.Errorf("String() = %q", s)
	}
	// Insignificant results carry the paper's asterisk.
	res2, _ := RunPaired("weak", switches[:4], PairedMean)
	if !strings.Contains(res2.String(), "*") && res2.Sig.Significant() == false {
		t.Errorf("weak result should be starred: %q", res2.String())
	}
}

func TestMatcherShuffleDoesNotChangePairCount(t *testing.T) {
	rng := randx.New(8)
	var treated, controls []*dataset.User
	for i := 0; i < 50; i++ {
		treated = append(treated, mkUser(int64(i), 0.02+rng.Float64()*0.2, 0.1, 25, 10, 1))
		controls = append(controls, mkUser(int64(100+i), 0.02+rng.Float64()*0.2, 0.1, 25, 5, 1))
	}
	m := Matcher{Confounders: []Confounder{ConfounderRTT()}}
	tv, cv := views(treated, controls)
	a := m.Match(tv, cv, randx.New(1))
	b := m.Match(tv, cv, randx.New(99))
	// Greedy order can change who pairs with whom, but the overall yield
	// should be stable within a small margin.
	if math.Abs(float64(len(a)-len(b))) > 5 {
		t.Errorf("pair yield unstable under shuffle: %d vs %d", len(a), len(b))
	}
}
