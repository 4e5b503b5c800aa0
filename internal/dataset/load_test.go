package dataset

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/unit"
)

func TestLoadDirRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	d := sampleDataset()
	// Give the sample enough plans for summaries to rebuild.
	for _, mbps := range []float64{1, 2, 4, 8, 16} {
		d.Plans = append(d.Plans,
			planFor("US", mbps, 20+0.55*(mbps-1)),
			planFor("JP", mbps, 21+0.08*(mbps-1)),
		)
	}
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Users) != len(d.Users) || len(back.Switches) != len(d.Switches) {
		t.Fatalf("round trip: %d users %d switches", len(back.Users), len(back.Switches))
	}
	// Market summaries rebuilt from the survey, with country metadata
	// rejoined from the built-in profiles.
	us, ok := back.Markets["US"]
	if !ok {
		t.Fatal("US market summary missing after load")
	}
	if us.Country.Name != "United States" || us.Country.GDPPerCapitaPPP != 49797 {
		t.Errorf("US country metadata not rejoined: %+v", us.Country)
	}
	if us.AccessPrice < 15 || us.AccessPrice > 25 {
		t.Errorf("US access price rebuilt as %v", us.AccessPrice)
	}
	// The sample fixture carries one off-line plan (10 Mbps at $45), which
	// legitimately steepens the rebuilt OLS slope above the 0.55 the added
	// ladder implies.
	if got := float64(us.Upgrade.Slope); got < 0.4 || got > 1.2 {
		t.Errorf("US upgrade slope rebuilt as %v", got)
	}
	if err := back.Validate(); err != nil {
		t.Errorf("loaded dataset invalid: %v", err)
	}
}

func TestLoadDirMissingFiles(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty directory should fail to load")
	}
}

// TestLoadDirMissingTableNamesPlainFile: when neither switches.csv nor
// switches.csv.gz exists, both loaders name the plain file — the one
// SaveDir writes — not the .gz fallback they tried last.
func TestLoadDirMissingTableNamesPlainFile(t *testing.T) {
	dir := savedSampleDir(t, sampleDataset())
	plain := filepath.Join(dir, "switches.csv")
	if err := os.Remove(plain); err != nil {
		t.Fatal(err)
	}
	want := "open " + plain + ": "
	_, err := LoadDir(dir)
	if err == nil || !strings.Contains(err.Error(), want) || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("LoadDir error = %v, want one naming %s", err, plain)
	}
	_, _, err = LoadDirRobust(dir, QuarantineOptions{})
	var re *RowError
	if !errors.As(err, &re) || re.File != plain || re.Class != FaultIO || !strings.Contains(err.Error(), want) {
		t.Errorf("LoadDirRobust error = %v, want an io fault naming %s", err, plain)
	}
}

func planFor(cc string, mbps, price float64) (p market.Plan) {
	p.Country = cc
	p.ISP = cc + "-ISP1"
	p.Down = unit.MbpsOf(mbps)
	p.Up = unit.MbpsOf(mbps / 4)
	p.PriceUSD = unit.USD(price)
	p.PriceLocal = price
	return p
}

// TestStrictLoadErrorNamesPackageOnce: a strict load's error says
// "dataset:" once, names the file and the row, and keeps its cause
// reachable through errors.Is and errors.As — for a row that fails to
// parse (a *RowError from the reader) and for an error returned by the
// caller's per-row function.
func TestStrictLoadErrorNamesPackageOnce(t *testing.T) {
	check := func(t *testing.T, err error, want string) {
		t.Helper()
		if err == nil {
			t.Fatal("load succeeded")
		}
		msg := err.Error()
		if n := strings.Count(msg, "dataset:"); n != 1 || !strings.HasPrefix(msg, "dataset: loading users: ") {
			t.Errorf("error names the package %d times or lacks the table: %s", n, msg)
		}
		if !strings.Contains(msg, want) {
			t.Errorf("error = %s, want it to name %q", msg, want)
		}
	}

	t.Run("parse", func(t *testing.T) {
		dir := savedSampleDir(t, sampleDataset())
		path := filepath.Join(dir, "users.csv")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		fields := strings.Split(lines[2], ",")
		fields[0] = "not-an-id"
		lines[2] = strings.Join(fields, ",")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = LoadDir(dir)
		check(t, err, path+" row 3 ")
		var re *RowError
		if !errors.As(err, &re) || re.File != path || re.Row != 3 {
			t.Errorf("LoadDir error %v does not carry the row's *RowError", err)
		}
	})

	t.Run("callback", func(t *testing.T) {
		dir := savedSampleDir(t, sampleDataset())
		stop := errors.New("stop here")
		n := 0
		err := EachUser(dir, func(*User) error {
			if n++; n == 2 {
				return stop
			}
			return nil
		})
		check(t, err, filepath.Join(dir, "users.csv")+" row 3: stop here")
		if !errors.Is(err, stop) {
			t.Errorf("EachUser error %v does not wrap the callback's error", err)
		}
	})
}
