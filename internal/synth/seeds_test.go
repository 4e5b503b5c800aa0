package synth

import (
	"testing"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/stats"
)

// TestShapesHoldAcrossSeeds guards the headline qualitative results against
// seed luck: the case-study orderings and the switch-panel direction must
// hold for several independent worlds, not just the tuned test seed.
func TestShapesHoldAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-world build")
	}
	for _, seed := range []uint64{101, 202, 303} {
		seed := seed
		w, err := Build(Config{
			Seed: seed, Users: 1000, FCCUsers: 150, Days: 2,
			SwitchTarget: 120, MinPerCountry: 20,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		medCap := func(cc string) float64 {
			p := w.Data.Panel()
			m, err := stats.Median(p.Where(dataset.ColCountry(cc), dataset.ColVantage(dataset.VantageDasu)).Gather(p.Capacity))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, cc, err)
			}
			return m
		}
		meanUtil := func(cc string) float64 {
			users := w.Data.Panel().Where(dataset.ColCountry(cc), dataset.ColVantage(dataset.VantageDasu)).Users()
			total := 0.0
			for _, u := range users {
				total += u.PeakUtilization()
			}
			return total / float64(len(users))
		}
		// Capacity ordering (Fig. 7a).
		if !(medCap("BW") < medCap("SA") && medCap("SA") < medCap("US") && medCap("US") < medCap("JP")) {
			t.Errorf("seed %d: capacity ordering broke: BW=%.2f SA=%.2f US=%.2f JP=%.2f",
				seed, medCap("BW"), medCap("SA"), medCap("US"), medCap("JP"))
		}
		// Utilization extremes (Fig. 7b); the middle of the ordering is
		// allowed to wobble at this world size.
		if !(meanUtil("BW") > meanUtil("US") && meanUtil("US") > meanUtil("JP")) {
			t.Errorf("seed %d: utilization extremes broke: BW=%.2f US=%.2f JP=%.2f",
				seed, meanUtil("BW"), meanUtil("US"), meanUtil("JP"))
		}
		// Switch-panel direction (Table 1).
		up := 0
		for _, s := range w.Data.Switches {
			if s.After.PeakNoBT > s.Before.PeakNoBT {
				up++
			}
		}
		frac := float64(up) / float64(len(w.Data.Switches))
		if frac < 0.55 || frac > 0.92 {
			t.Errorf("seed %d: switch-panel peak fraction %.2f outside the paper regime", seed, frac)
		}
	}
}
