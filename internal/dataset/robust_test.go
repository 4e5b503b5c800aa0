package dataset

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPostPassDemotionsEnforceBudget pins the fractional budget on the rows
// the robust loader demotes after a table was read: duplicate IDs and users
// whose market has no plan survey. Each fixture demotes half of users.csv,
// far past the 5% default, so the load must fail with a *BudgetError
// instead of returning a half-quarantined dataset.
func TestPostPassDemotionsEnforceBudget(t *testing.T) {
	for _, tc := range []struct {
		name  string
		class RowFault
		dirty func(d *Dataset)
	}{
		{"duplicate", FaultDuplicate, nil},
		{"orphan", FaultReference, func(d *Dataset) {
			// Botswana has no plan survey rows, so its users are orphans.
			for i := range d.Users {
				d.Users = append(d.Users, sampleUser(int64(100+i), "BW", 1))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := sampleDataset()
			if tc.dirty != nil {
				tc.dirty(d)
			}
			dir := savedSampleDir(t, d)
			if tc.class == FaultDuplicate {
				// Every users.csv row appears twice.
				path := filepath.Join(dir, "users.csv")
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
				lines = append(lines, lines[1:]...)
				if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, rep, err := LoadDirRobust(dir, QuarantineOptions{})
			var budget *BudgetError
			if !errors.As(err, &budget) {
				t.Fatalf("LoadDirRobust = (%v, %v), want a *BudgetError; report: %s", got != nil, err, rep.Render())
			}
			// Demotion stops at the first row past the budget, as reading does.
			if budget.Read != 6 || budget.Bad == 0 || budget.Counts[tc.class] != budget.Bad {
				t.Fatalf("budget error = %+v, want only %s rows of 6", budget, tc.class)
			}
			// A budget that admits the demotions still loads the survivors.
			got, _, err = LoadDirRobust(dir, QuarantineOptions{MaxBadFrac: 0.9})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Users) != 3 {
				t.Fatalf("loose load kept %d users, want 3", len(got.Users))
			}
		})
	}
}
