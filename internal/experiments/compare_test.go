package experiments

import (
	"strings"
	"testing"

	"github.com/nwca/broadband/internal/cli"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/golden"
	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/synth"
)

// On worlds small enough that some rung of each matched-comparison table
// matches too few pairs, the table still reports: every underpowered rung
// is a row that marshals Skipped: true with an empty result and renders
// "(too few)", and every other row carries at least MinGroup pairs.
func TestUnderpoweredRungsSkipped(t *testing.T) {
	t.Parallel()
	build := func(cfg synth.Config) *dataset.Dataset {
		w, err := synth.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return &w.Data
	}
	small := build(synth.Config{Seed: 1, Users: 300, FCCUsers: 75, Days: 1, SwitchTarget: 40, MinPerCountry: 8})
	// Table 6 bands whole markets by upgrade cost, so it takes a world
	// drawn from few markets (no per-country floor) to leave a band short.
	tiny := build(synth.Config{Seed: 1, Users: 150, FCCUsers: 400, Days: 1, SwitchTarget: 20})
	for _, tc := range []struct {
		id   string
		run  Runner
		d    *dataset.Dataset
		rows []string // the table's row lists in the marshalled report
	}{
		{"Table 2", RunTable02, small, []string{"Dasu", "FCC"}},
		{"Table 6", RunTable06, tiny, []string{"WithBT", "NoBT"}},
		{"Table 7", RunTable07, small, []string{"Rows"}},
		{"Table 8", RunTable08, small, []string{"Rows"}},
	} {
		t.Run(tc.id, func(t *testing.T) {
			rep, err := tc.run(tc.d, rng(tc.id))
			if err != nil {
				t.Fatal(err)
			}
			v, err := golden.ToValue(rep)
			if err != nil {
				t.Fatal(err)
			}
			skipped := 0
			for _, list := range tc.rows {
				for i, row := range v.Field(list).Arr {
					pairs := row.Field("Result").Field("Pairs").Num
					switch {
					case row.Field("Skipped").Bool:
						skipped++
						if pairs != 0 {
							t.Errorf("%s/%d: skipped row carries %v pairs", list, i, pairs)
						}
					case pairs < MinGroup:
						t.Errorf("%s/%d: %v pairs but not marked Skipped", list, i, pairs)
					}
				}
			}
			if skipped == 0 {
				t.Fatal("no rung is underpowered in this world; the test needs a smaller one")
			}
			if n := strings.Count(rep.Render(), "(too few)"); n != skipped {
				t.Errorf("render shows %d \"(too few)\" rows, report marks %d skipped:\n%s", n, skipped, rep.Render())
			}
		})
	}
}

// Table 3 treats an underpowered price stratum like every other matched
// table: at the canonical world size, seeds 3 and 10 leave the
// ($0, $25] vs ($60, inf) comparison with fewer than MinGroup pairs. The
// table must still report, with that row skipped and the other matched.
func TestTable03SkipsUnderpoweredStratum(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two canonical-size worlds")
	}
	t.Parallel()
	for _, seed := range []uint64{3, 10} {
		cfg := cli.CanonicalWorld
		cfg.Seed = seed
		w, err := synth.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := Lookup("Table 3")
		rep, err := RunAt(e, &w.Data, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tab := rep.(*Table03)
		if len(tab.Rows) != 2 {
			t.Fatalf("seed %d: %d rows, want 2", seed, len(tab.Rows))
		}
		if mid := tab.Rows[0]; mid.Skipped || mid.Result.Pairs < MinGroup {
			t.Errorf("seed %d: %v vs %v skipped=%v with %d pairs, want matched",
				seed, mid.Control, mid.Treatment, mid.Skipped, mid.Result.Pairs)
		}
		if exp := tab.Rows[1]; exp.Treatment != market.AccessExpensive || !exp.Skipped || exp.Result.Pairs != 0 {
			t.Errorf("seed %d: %v vs %v skipped=%v with %d pairs, want skipped",
				seed, exp.Control, exp.Treatment, exp.Skipped, exp.Result.Pairs)
		}
		if !strings.Contains(rep.Render(), "(too few)") {
			t.Errorf("seed %d: render does not show the skipped row:\n%s", seed, rep.Render())
		}
	}
}
