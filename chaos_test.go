package broadband_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/chaos"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/golden"
)

// The root chaos suite is the end-to-end robustness gate: the full registry
// must survive a lightly faulted dataset with its scorecard intact, and
// heavy faults must fail typed — never with a panic, never silently.

var (
	chaosWorldOnce sync.Once
	chaosWorld     *broadband.World
	chaosWorldErr  error
)

// chaosTestWorld builds the chaos suite's shared world once: the
// metamorphic matrix's smallest configuration, big enough that a ≤1% fault
// rate is statistically visible but still loads in seconds.
func chaosTestWorld(t *testing.T) *broadband.World {
	t.Helper()
	chaosWorldOnce.Do(func() {
		chaosWorld, chaosWorldErr = broadband.BuildWorld(metaWorld(1000, 20140705))
	})
	if chaosWorldErr != nil {
		t.Fatalf("chaos world: %v", chaosWorldErr)
	}
	return chaosWorld
}

// saveChaosWorld writes the shared world into a fresh directory.
func saveChaosWorld(t *testing.T, gz bool) string {
	t.Helper()
	dir := t.TempDir()
	if err := broadband.SaveDataset(&chaosTestWorld(t).Data, dir, broadband.SaveOptions{Gzip: gz}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestChaosRegistryUnderLowFaultRate is the headline acceptance check: at
// fault rates at or below 1%, the quarantine layer absorbs the damage and
// every registry artifact still satisfies the scale-invariant assertions.
func TestChaosRegistryUnderLowFaultRate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry chaos matrix is slow; skipped with -short")
	}
	m, err := golden.LoadManifest("testdata/assertions.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0.002, 0.01} {
		rate := rate
		t.Run(fmt.Sprintf("rate=%g", rate), func(t *testing.T) {
			t.Parallel()
			dir := saveChaosWorld(t, true)
			log, err := chaos.New(chaos.Config{Seed: 20140705, Rate: rate}).PerturbDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(log.Events) == 0 {
				t.Fatalf("rate %g injected nothing into a %d-user world", rate, len(chaosTestWorld(t).Data.Users))
			}
			d, rep, err := broadband.LoadDatasetRobust(dir, broadband.QuarantineOptions{})
			if err != nil {
				t.Fatalf("robust load failed within budget:\n%s\n%v", rep.Render(), err)
			}
			if rep.RowsKept >= rep.RowsRead && rate >= 0.01 {
				t.Errorf("quarantine saw no damage at rate %g: kept %d of %d", rate, rep.RowsKept, rep.RowsRead)
			}
			for _, e := range broadband.Experiments() {
				repArt, err := broadband.Run(e.ID, d, 20140705)
				if err != nil {
					t.Errorf("%s: %v", e.ID, err)
					continue
				}
				v, err := golden.ToValue(repArt)
				if err != nil {
					t.Errorf("%s: %v", e.ID, err)
					continue
				}
				for _, viol := range golden.EvalChecks(v, m.Checks(e.ID), true) {
					t.Errorf("%s: %s", e.ID, viol)
				}
			}
		})
	}
}

// TestChaosHighRateFailsTyped: at a 20% fault rate the load must refuse
// the dataset — and the refusal must be the typed, summarizing budget
// error, not a panic or an anonymous failure.
func TestChaosHighRateFailsTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the shared chaos world; skipped with -short")
	}
	dir := saveChaosWorld(t, false)
	if _, err := chaos.New(chaos.Config{Seed: 13, Rate: 0.20}).PerturbDir(dir); err != nil {
		t.Fatal(err)
	}
	_, rep, err := broadband.LoadDatasetRobust(dir, broadband.QuarantineOptions{})
	if err == nil {
		t.Fatalf("a 20%% fault rate loaded inside a 5%% budget; report:\n%s", rep.Render())
	}
	var be *broadband.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %T: %v", err, err)
	}
	if rep == nil || len(rep.Diags) == 0 {
		t.Error("failed load must still hand back its quarantine diagnostics")
	}
}

// TestChaosInterruptedSaveLeavesNoPartialArtifacts pins the atomic-write
// guarantee under cancellation: whenever the save is interrupted, every
// table file either exists complete or does not exist at all, and no
// temporary files survive.
func TestChaosInterruptedSaveLeavesNoPartialArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the shared chaos world; skipped with -short")
	}
	d := &chaosTestWorld(t).Data
	delays := []time.Duration{-1, 0, 200 * time.Microsecond, 2 * time.Millisecond}
	for i, delay := range delays {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		if delay < 0 {
			cancel() // interrupt before the first byte
		} else {
			go func() { time.Sleep(delay); cancel() }()
		}
		err := broadband.SaveDatasetCtx(ctx, d, dir, broadband.SaveOptions{})
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("case %d: unexpected save error: %v", i, err)
		}
		if delay < 0 && err == nil {
			t.Fatalf("case %d: pre-cancelled save reported success", i)
		}
		assertNoPartialTables(t, dir, d)
	}
}

// assertNoPartialTables fails the test if dir holds temp files or a table
// file that does not parse back to its complete row population.
func assertNoPartialTables(t *testing.T, dir string, d *broadband.Dataset) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") || strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temporary file %q survived the interrupted save", e.Name())
		}
	}
	counts := map[string]int{
		"users.csv":    len(d.Users),
		"switches.csv": len(d.Switches),
		"plans.csv":    len(d.Plans),
	}
	for base, want := range counts {
		path := filepath.Join(dir, base)
		f, err := os.Open(path)
		if errors.Is(err, os.ErrNotExist) {
			continue // never committed: exactly the guarantee
		}
		if err != nil {
			t.Fatal(err)
		}
		got, rerr := countRows(base, f)
		f.Close()
		if rerr != nil {
			t.Errorf("%s exists but is not fully parseable: %v", base, rerr)
		} else if got != want {
			t.Errorf("%s exists with %d of %d rows — a partial artifact", base, got, want)
		}
	}
}

func countRows(base string, f *os.File) (int, error) {
	switch base {
	case "users.csv":
		rows, err := dataset.ReadAll[dataset.User](f, base)
		return len(rows), err
	case "switches.csv":
		rows, err := dataset.ReadAll[dataset.Switch](f, base)
		return len(rows), err
	default:
		rows, err := dataset.ReadAll[broadband.Plan](f, base)
		return len(rows), err
	}
}

// TestChaosRunAllCtxCancellation: a cancelled fan-out stops dispatching and
// reports the cancellation; a pre-cancelled context runs nothing.
func TestChaosRunAllCtxCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the shared chaos world; skipped with -short")
	}
	d := &chaosTestWorld(t).Data
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := broadband.RunAllCtx(ctx, d, 20140705); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunAllCtx returned %v", err)
	}
	// An undisturbed context must still run the whole registry.
	reports, err := broadband.RunAllCtx(context.Background(), d, 20140705)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(broadband.Experiments()) {
		t.Fatalf("got %d reports for %d experiments", len(reports), len(broadband.Experiments()))
	}
}
