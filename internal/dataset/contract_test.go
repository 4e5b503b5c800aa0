package dataset

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"github.com/nwca/broadband/internal/unit"
)

// TestEveryLoadRunsTheTableCheck: a row that fails its table's check fails
// the strict loads (LoadDir, and EachUser over the users table) with a
// domain *RowError naming its file and row, and the robust load
// quarantines exactly that row.
func TestEveryLoadRunsTheTableCheck(t *testing.T) {
	for _, tc := range []struct {
		name  string
		file  string // table file holding the bad row
		row   int
		kept  int // users the robust load keeps, of 3
		dirty func(d *Dataset, users []User)
	}{
		{"user year 1900", "users.csv", 3, 2, func(_ *Dataset, users []User) { users[1].Year = 1900 }},
		{"user negative web rtt", "users.csv", 3, 2, func(_ *Dataset, users []User) { users[1].WebRTT = -0.01 }},
		{"user NaN upload capacity", "users.csv", 3, 2, func(_ *Dataset, users []User) { users[1].UpCapacity = unit.Bitrate(math.NaN()) }},
		{"plan negative price", "plans.csv", 2, 3, func(d *Dataset, _ []User) { d.Plans[0].PriceUSD = -45 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := sampleDataset()
			users := append([]User(nil), d.Users...)
			tc.dirty(d, users)
			d.SetUsers(BuildPanel(users))
			dir := savedSampleDir(t, d)
			path := filepath.Join(dir, tc.file)

			wantDomain := func(what string, err error) {
				t.Helper()
				var re *RowError
				if !errors.As(err, &re) || re.Class != FaultDomain || re.File != path || re.Row != tc.row {
					t.Errorf("%s error = %v, want a domain *RowError at %s row %d", what, err, path, tc.row)
				}
			}
			_, err := LoadDir(dir)
			wantDomain("LoadDir", err)
			if tc.file == "users.csv" {
				wantDomain("EachUser", EachUser(dir, func(*User) error { return nil }))
			}

			got, rep, err := LoadDirRobust(dir, QuarantineOptions{MaxBadFrac: 0.9})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Diags) != 1 || rep.Diags[0].File != path || rep.Diags[0].Row != tc.row || rep.Diags[0].Class != FaultDomain {
				t.Fatalf("robust load quarantined %v, want %s row %d [domain]", rep.Diags, path, tc.row)
			}
			if len(got.Users) != tc.kept {
				t.Errorf("robust load kept %d users, want %d", len(got.Users), tc.kept)
			}
		})
	}
}

// TestUpgradeCostIsAFiniteSlope: the upgrade cost is a fitted slope, so
// any finite value of either sign within the money bound loads through
// both loaders, and a non-finite or implausibly large one fails both.
func TestUpgradeCostIsAFiniteSlope(t *testing.T) {
	for _, tc := range []struct {
		cost unit.PerMbps
		ok   bool
	}{
		{-58.57, true},
		{-maxPlausibleUSD, true},
		{0, true},
		{unit.PerMbps(math.NaN()), false},
		{unit.PerMbps(math.Inf(1)), false},
		{unit.PerMbps(math.Inf(-1)), false},
		{1e9, false},
		{-1e9, false},
	} {
		d := sampleDataset()
		users := append([]User(nil), d.Users...)
		users[1].UpgradeCost = tc.cost
		d.SetUsers(BuildPanel(users))
		dir := savedSampleDir(t, d)

		strict, err := LoadDir(dir)
		_, rep, rerr := LoadDirRobust(dir, QuarantineOptions{MaxBadFrac: 0.9})
		if rerr != nil {
			t.Fatalf("cost %v: robust load: %v", tc.cost, rerr)
		}
		if tc.ok {
			if err != nil || len(rep.Diags) != 0 {
				t.Errorf("cost %v rejected: LoadDir %v, robust diags %v", tc.cost, err, rep.Diags)
			} else if got := strict.Users[1].UpgradeCost; got != tc.cost {
				t.Errorf("cost %v loaded as %v", tc.cost, got)
			}
			continue
		}
		var re *RowError
		if !errors.As(err, &re) || re.Class != FaultDomain || re.Row != 3 {
			t.Errorf("cost %v: LoadDir error = %v, want a domain fault at row 3", tc.cost, err)
		}
		if len(rep.Diags) != 1 || rep.Diags[0].Row != 3 || rep.Diags[0].Class != FaultDomain {
			t.Errorf("cost %v: robust diags %v, want row 3 [domain]", tc.cost, rep.Diags)
		}
	}
}

// TestStrictLoadFailsOnCrossRowFaults: LoadDir runs the cross-row rules
// LoadDirRobust demotes with, failing on the first duplicate id or orphan
// with a typed *RowError at its row.
func TestStrictLoadFailsOnCrossRowFaults(t *testing.T) {
	for _, tc := range []struct {
		class RowFault
		dirty func(users []User)
	}{
		{FaultDuplicate, func(users []User) { users[1].ID = users[0].ID }},
		{FaultReference, func(users []User) { users[1].Country = "BW" }}, // Botswana: no plan survey
	} {
		d := sampleDataset()
		users := append([]User(nil), d.Users...)
		tc.dirty(users)
		d.SetUsers(BuildPanel(users))
		dir := savedSampleDir(t, d)
		_, err := LoadDir(dir)
		var re *RowError
		if !errors.As(err, &re) || re.Class != tc.class || re.Row != 3 || re.File != filepath.Join(dir, "users.csv") {
			t.Errorf("%s: LoadDir error = %v, want a %s fault at users.csv row 3", tc.class, err, tc.class)
		}
	}
}
