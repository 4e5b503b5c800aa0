package dataset

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
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

// TestShardDemotionChargesItsFile: over a sharded user table every shard
// is its own quarantine file, so a post-pass demotion is reported against
// the shard its row came from, at that shard's row number.
func TestShardDemotionChargesItsFile(t *testing.T) {
	d := sampleDataset()
	dir := savedSampleDir(t, d)
	if err := os.Remove(filepath.Join(dir, "users.csv")); err != nil {
		t.Fatal(err)
	}
	writeShardSet(t, dir, d.Users, 3, false)
	// Repeat shard 0's user at the end of shard 2, as its second data row.
	first, err := os.ReadFile(filepath.Join(dir, UserShardName(0, 3, false)))
	if err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(dir, UserShardName(2, 3, false))
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	dup := strings.SplitAfter(string(first), "\n")[1]
	if err := os.WriteFile(last, append(raw, dup...), 0o644); err != nil {
		t.Fatal(err)
	}

	got, rep, err := LoadDirRobust(dir, QuarantineOptions{MaxBadFrac: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	want := []RowDiag{{File: last, Row: 3, Class: FaultDuplicate, Cause: "duplicate user id 1"}}
	if !reflect.DeepEqual(rep.Diags, want) {
		t.Fatalf("diags = %v, want %v", rep.Diags, want)
	}
	if len(got.Users) != len(d.Users) || rep.RowsRead != rep.RowsKept+1 {
		t.Fatalf("kept %d users (want %d); report %d of %d kept", len(got.Users), len(d.Users), rep.RowsKept, rep.RowsRead)
	}
}
