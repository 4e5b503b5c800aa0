package synth

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/nwca/broadband/internal/market"
)

// TestParallelBuildMatchesSequential is the determinism contract of the
// build's fan-out: for the same seed, a parallel build must produce a
// dataset byte-identical to the sequential (GOMAXPROCS=1) path — users,
// switches, plans, ground truth and the shortfall accounting all included.
func TestParallelBuildMatchesSequential(t *testing.T) {
	base := Config{
		Seed: 9, Users: 400, FCCUsers: 80, Days: 1,
		SwitchTarget: 40, MinPerCountry: 5,
	}
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	seq, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{4, 13} {
		runtime.GOMAXPROCS(procs)
		got, err := Build(base)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(got.Data.Users) != len(seq.Data.Users) {
			t.Fatalf("GOMAXPROCS=%d: %d users vs sequential %d", procs, len(got.Data.Users), len(seq.Data.Users))
		}
		for i := range seq.Data.Users {
			if got.Data.Users[i] != seq.Data.Users[i] {
				t.Fatalf("GOMAXPROCS=%d: user %d differs:\n%+v\n%+v", procs, i, got.Data.Users[i], seq.Data.Users[i])
			}
		}
		if !reflect.DeepEqual(got.Data.Switches, seq.Data.Switches) {
			t.Errorf("GOMAXPROCS=%d: switch panel differs", procs)
		}
		if !reflect.DeepEqual(got.Data.Plans, seq.Data.Plans) {
			t.Errorf("GOMAXPROCS=%d: plan survey differs", procs)
		}
		if !reflect.DeepEqual(got.Truth, seq.Truth) {
			t.Errorf("GOMAXPROCS=%d: ground truth differs", procs)
		}
		if !reflect.DeepEqual(got.Skipped, seq.Skipped) {
			t.Errorf("GOMAXPROCS=%d: skipped-household accounting differs: %v vs %v", procs, got.Skipped, seq.Skipped)
		}
	}
}

// TestSkippedAccounting checks that the generated population plus the
// recorded shortfall always equals the configured slot count.
func TestSkippedAccounting(t *testing.T) {
	w, err := Build(Config{Seed: 21, Users: 300, FCCUsers: 40, Days: 1, SwitchTarget: 5})
	if err != nil {
		t.Fatal(err)
	}
	gen := &generator{cfg: Config{Seed: 21, Users: 300, FCCUsers: 40, Days: 1, SwitchTarget: 5}.withDefaults(), world: w}
	lay, err := gen.layout()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Data.Users) + w.SkippedHouseholds(); got != lay.total {
		t.Errorf("users(%d) + skipped(%d) = %d, want the %d configured slots",
			len(w.Data.Users), w.SkippedHouseholds(), got, lay.total)
	}
	for cc, n := range w.Skipped {
		if n <= 0 {
			t.Errorf("country %s recorded a non-positive skip count %d", cc, n)
		}
	}
}

func profilesForApportionment(weights []float64) []market.Profile {
	profs := make([]market.Profile, len(weights))
	for i, w := range weights {
		profs[i].Country.Code = string(rune('A'+i/26)) + string(rune('A'+i%26))
		profs[i].UserWeight = w
	}
	return profs
}

// TestCountryCountsExact pins the largest-remainder apportionment: without
// a floor the per-country counts must sum to exactly the requested total,
// for totals that do not divide evenly across the weights.
func TestCountryCountsExact(t *testing.T) {
	cases := []struct {
		weights []float64
		totals  []int
	}{
		{[]float64{1, 1, 1}, []int{1, 2, 7, 100, 1001}},
		{[]float64{0.5, 0.3, 0.2}, []int{1, 9, 10, 97}},
		{[]float64{3, 1, 1, 1, 1}, []int{2, 13, 500}},
		{[]float64{0.01, 0.99}, []int{3, 50}},
		{[]float64{1, 0, 2}, []int{5, 11}},
	}
	for _, tc := range cases {
		profs := profilesForApportionment(tc.weights)
		for _, total := range tc.totals {
			counts := countryCounts(profs, total, 0)
			sum := 0
			for _, n := range counts {
				sum += n
			}
			if sum != total {
				t.Errorf("weights %v total %d: counts sum to %d (%v)", tc.weights, total, sum, counts)
			}
		}
	}
}

// TestCountryCountsMinPerFloor checks the floor semantics: every country is
// raised to minPer, and that is the only allowed source of overshoot.
func TestCountryCountsMinPerFloor(t *testing.T) {
	profs := profilesForApportionment([]float64{100, 1, 1})
	counts := countryCounts(profs, 50, 5)
	for _, p := range profs {
		if counts[p.Country.Code] < 5 {
			t.Errorf("country %s below the minPer floor: %d", p.Country.Code, counts[p.Country.Code])
		}
	}
	sum := 0
	floored := 0
	for _, p := range profs {
		n := counts[p.Country.Code]
		sum += n
		if n == 5 {
			floored += n
		}
	}
	// The unfloored countries alone must never overshoot the target.
	if sum-floored > 50 {
		t.Errorf("unfloored countries allocate %d of a %d target", sum-floored, 50)
	}
}

// TestCountryCountsProportional checks the apportionment is within one user
// of the exact proportional share for every country.
func TestCountryCountsProportional(t *testing.T) {
	weights := []float64{5, 3, 2, 1, 1, 0.5}
	profs := profilesForApportionment(weights)
	total := 997
	counts := countryCounts(profs, total, 0)
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	for i, p := range profs {
		exact := float64(total) * weights[i] / sum
		got := float64(counts[p.Country.Code])
		if got < exact-1 || got > exact+1 {
			t.Errorf("country %s: got %v, exact share %.2f", p.Country.Code, got, exact)
		}
	}
}
