package broadband_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/cli"
)

// TestCSVRoundTripPreservesAnalyses checks the bbgen → bbrepro contract:
// an experiment computed on a freshly generated world and on the same world
// after a CSV save/load cycle must report identical results.
func TestCSVRoundTripPreservesAnalyses(t *testing.T) {
	world := apiTestWorld(t)
	dir := filepath.Join(t.TempDir(), "rt")
	if err := world.Data.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := broadband.LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Users) != len(world.Data.Users) || len(loaded.Switches) != len(world.Data.Switches) {
		t.Fatalf("round trip changed sizes: %d/%d users, %d/%d switches",
			len(loaded.Users), len(world.Data.Users), len(loaded.Switches), len(world.Data.Switches))
	}
	for _, id := range []string{"Table 1", "Fig. 1", "Fig. 10", "Table 5"} {
		orig, err := broadband.Run(id, &world.Data, 9)
		if err != nil {
			t.Fatalf("%s on original: %v", id, err)
		}
		back, err := broadband.Run(id, loaded, 9)
		if err != nil {
			t.Fatalf("%s on loaded: %v", id, err)
		}
		if orig.Render() != back.Render() {
			t.Errorf("%s differs after CSV round trip:\n--- original ---\n%s--- loaded ---\n%s",
				id, orig.Render(), back.Render())
		}
	}
}

// TestCSVSaveLoadSaveByteIdentical is the lossless-serialization contract:
// floats are written in shortest round-trippable form, so saving a loaded
// dataset reproduces every file bit-for-bit — and the sharded parallel
// encoder must not perturb that, whatever GOMAXPROCS sets its shard count
// to.
func TestCSVSaveLoadSaveByteIdentical(t *testing.T) {
	world := apiTestWorld(t)
	first := filepath.Join(t.TempDir(), "first")
	if err := world.Data.SaveDir(first); err != nil {
		t.Fatal(err)
	}
	loaded, err := broadband.LoadDataset(first)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 3, prev} {
		runtime.GOMAXPROCS(procs)
		second := filepath.Join(t.TempDir(), "second")
		if err := broadband.SaveDataset(loaded, second, broadband.SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"users.csv", "switches.csv", "plans.csv"} {
			a, err := os.ReadFile(filepath.Join(first, name))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(second, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("GOMAXPROCS=%d: %s not byte-identical after save→load→save", procs, name)
			}
		}
	}
}

// TestGzipDatasetPreservesAnalyses runs an experiment against a world that
// traveled through the compressed transport.
func TestGzipDatasetPreservesAnalyses(t *testing.T) {
	world := apiTestWorld(t)
	dir := filepath.Join(t.TempDir(), "gz")
	if err := broadband.SaveDataset(&world.Data, dir, broadband.SaveOptions{Gzip: true}); err != nil {
		t.Fatal(err)
	}
	loaded, err := broadband.LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := broadband.Run("Table 1", &world.Data, 9)
	if err != nil {
		t.Fatal(err)
	}
	back, err := broadband.Run("Table 1", loaded, 9)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Render() != back.Render() {
		t.Error("Table 1 differs after gzip round trip")
	}
}

// TestLoadDatasetRobustReadsShardedWorld: the robust loader discovers the
// user table the way LoadDataset does (the monolithic file, otherwise the
// shard set), so a world written out-of-core loads robustly with exactly
// the strict loader's rows and nothing quarantined.
func TestLoadDatasetRobustReadsShardedWorld(t *testing.T) {
	dir := t.TempDir()
	cfg := broadband.WorldConfig{Seed: 4, Users: 700, FCCUsers: 120, Days: 1, SwitchTarget: 60, MinPerCountry: 10}
	if _, err := broadband.BuildWorldSharded(context.Background(), cfg, broadband.ShardSpec{Dir: dir, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	strict, err := broadband.LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	robust, rep, err := broadband.LoadDatasetRobust(dir, broadband.QuarantineOptions{})
	if err != nil {
		t.Fatalf("robust load of a sharded world: %v", err)
	}
	if len(rep.Diags) != 0 || rep.RowsKept != rep.RowsRead {
		t.Fatalf("clean sharded world quarantined rows:\n%s", rep.Render())
	}
	if want := len(strict.Users) + len(strict.Switches) + len(strict.Plans); rep.RowsRead != want {
		t.Errorf("report read %d rows, want %d", rep.RowsRead, want)
	}
	if !reflect.DeepEqual(strict.Users, robust.Users) || !reflect.DeepEqual(strict.Switches, robust.Switches) ||
		!reflect.DeepEqual(strict.Plans, robust.Plans) {
		t.Fatal("robust load of a sharded world differs from LoadDataset")
	}
}

// TestCanonicalWorldLoadsWhole: the world the goldens pin, saved, loads
// through the strict and the robust loader to the same users with nothing
// quarantined — both loaders hold every row to the same table check, and
// a negative fitted upgrade cost (AF's) is a market state, not a fault.
func TestCanonicalWorldLoadsWhole(t *testing.T) {
	if testing.Short() {
		t.Skip("canonical world generation is slow; skipped with -short")
	}
	world, err := broadband.BuildWorld(cli.CanonicalWorld)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := world.Data.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	strict, err := broadband.LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	robust, rep, err := broadband.LoadDatasetRobust(dir, broadband.QuarantineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const users = 12688
	if len(strict.Users) != users || len(robust.Users) != users || len(rep.Diags) != 0 {
		t.Fatalf("strict load kept %d users, robust %d, want %d each; robust %s",
			len(strict.Users), len(robust.Users), users, rep.Render())
	}
}
