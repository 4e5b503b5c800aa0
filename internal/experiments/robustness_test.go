package experiments

import (
	"testing"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/synth"
)

// Every runner must fail cleanly — never panic, never return a nil report —
// on degenerate datasets.

func runAllAgainst(t *testing.T, d *dataset.Dataset, label string) {
	t.Helper()
	entries := append(Registry(), Extensions()...)
	for _, e := range entries {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panicked on %s dataset: %v", e.ID, label, r)
				}
			}()
			rep, err := e.Run(d, rng(label+e.ID))
			if err == nil && rep == nil {
				t.Errorf("%s returned nil report without error on %s dataset", e.ID, label)
			}
			if err == nil && rep != nil && rep.Render() == "" {
				t.Errorf("%s returned empty render on %s dataset", e.ID, label)
			}
		}()
	}
}

func TestRunnersOnEmptyDataset(t *testing.T) {
	t.Parallel()
	d := &dataset.Dataset{Markets: map[string]market.MarketSummary{}}
	d.SetUsers(dataset.NewPanel(0))
	runAllAgainst(t, d, "empty")
}

func TestRunnersOnSwitchlessDataset(t *testing.T) {
	t.Parallel()
	d := evalData(t)
	clone := *d
	clone.Switches = nil
	// The switch-panel artifacts must error; everything else must run.
	for _, id := range []string{"Table 1", "Fig. 4", "Fig. 5"} {
		e, _ := Find(id)
		if _, err := e.Run(&clone, rng("noswitch"+id)); err == nil {
			t.Errorf("%s should fail without switch records", id)
		}
	}
	for _, id := range []string{"Fig. 1", "Table 2", "Fig. 10"} {
		e, _ := Find(id)
		if _, err := e.Run(&clone, rng("noswitch"+id)); err != nil {
			t.Errorf("%s should not need switches: %v", id, err)
		}
	}
}

func TestRunnersOnSingleCountryDataset(t *testing.T) {
	t.Parallel()
	// A US-only world: the case-study artifacts (which need BW/SA/JP) and
	// the India artifacts must fail cleanly; US-internal analyses survive.
	w, err := synth.Build(synth.Config{
		Seed: 55, Users: 300, FCCUsers: 60, Days: 1, SwitchTarget: 40,
		Profiles: usOnlyProfiles(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	runAllAgainst(t, &w.Data, "us-only")
	for _, id := range []string{"Table 4", "Fig. 7", "Fig. 11", "Fig. 12"} {
		e, _ := Find(id)
		if _, err := e.Run(&w.Data, rng("us"+id)); err == nil {
			t.Errorf("%s should fail on a US-only world", id)
		}
	}
	for _, id := range []string{"Fig. 1", "Fig. 2", "Table 1"} {
		e, _ := Find(id)
		if _, err := e.Run(&w.Data, rng("us"+id)); err != nil {
			t.Errorf("%s should survive a US-only world: %v", id, err)
		}
	}
}

func usOnlyProfiles(t *testing.T) []market.Profile {
	t.Helper()
	us, ok := market.FindProfile("US")
	if !ok {
		t.Fatal("no US profile")
	}
	return []market.Profile{us}
}

func TestRunnersOnTinyDataset(t *testing.T) {
	t.Parallel()
	w, err := synth.Build(synth.Config{Seed: 56, Users: 25, FCCUsers: 5, Days: 1, SwitchTarget: 3})
	if err != nil {
		t.Fatal(err)
	}
	runAllAgainst(t, &w.Data, "tiny")
}
