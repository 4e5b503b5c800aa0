package broadband_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/dataset"
)

// TestPanelMatchesUsersAtConstruction pins the one-users-table invariant:
// every way a dataset is made — world build, the strict loader, and the
// robust loader after its duplicate and orphan demotions — installs a
// panel that is exactly the columnar projection of the surviving rows.
func TestPanelMatchesUsersAtConstruction(t *testing.T) {
	world := apiTestWorld(t)
	clean := filepath.Join(t.TempDir(), "clean")
	if err := world.Data.SaveDir(clean); err != nil {
		t.Fatal(err)
	}
	loaded, err := broadband.LoadDataset(clean)
	if err != nil {
		t.Fatal(err)
	}
	// dirty copies clean with extra users.csv rows appended.
	dirty := func(t *testing.T, extra func(rows []string) []string) string {
		dir := filepath.Join(t.TempDir(), "dirty")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"users.csv", "switches.csv", "plans.csv"} {
			raw, err := os.ReadFile(filepath.Join(clean, name))
			if err != nil {
				t.Fatal(err)
			}
			if name == "users.csv" {
				lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
				raw = []byte(strings.Join(append(lines, extra(lines[1:])...), "\n") + "\n")
			}
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	robust := func(t *testing.T, dir string, class broadband.RowFault) *broadband.Dataset {
		d, rep, err := broadband.LoadDatasetRobust(dir, broadband.QuarantineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if n := rep.Counts()[class]; n != 3 || len(rep.Diags) != 3 {
			t.Fatalf("want 3 %s demotions, got:\n%s", class, rep.Render())
		}
		if !reflect.DeepEqual(d.Users, loaded.Users) {
			t.Fatal("demotions did not leave exactly the clean load's rows")
		}
		return d
	}

	for _, tc := range []struct {
		name string
		make func(t *testing.T) *broadband.Dataset
	}{
		{"synth build", func(*testing.T) *broadband.Dataset { return &world.Data }},
		{"LoadDir", func(*testing.T) *broadband.Dataset { return loaded }},
		{"LoadDirRobust duplicates", func(t *testing.T) *broadband.Dataset {
			return robust(t, dirty(t, func(rows []string) []string { return rows[:3] }), dataset.FaultDuplicate)
		}},
		{"LoadDirRobust orphans", func(t *testing.T) *broadband.Dataset {
			// Fresh IDs in a market with no plan survey.
			return robust(t, dirty(t, func(rows []string) []string {
				var out []string
				for i, row := range rows[:3] {
					fields := strings.SplitN(row, ",", 3)
					out = append(out, strings.Join([]string{strconv.Itoa(90_000_000 + i), "ZZ", fields[2]}, ","))
				}
				return out
			}), dataset.FaultReference)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.make(t)
			if len(d.Users) == 0 {
				t.Fatal("no users")
			}
			if !reflect.DeepEqual(dataset.BuildPanel(d.Users), d.Panel()) {
				t.Fatal("installed panel differs from BuildPanel(Users)")
			}
		})
	}
}
