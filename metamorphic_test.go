package broadband_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/golden"
)

// The metamorphic suite checks properties the reproduction must keep under
// transformations of the pipeline that should not matter:
//
//   - population scale and seed: halving or doubling the world, or reseeding
//     it, must preserve every scale_invariant check in the assertion
//     manifest (the scorecard's signs and orderings, not its exact values);
//   - parallelism: RunAll must emit byte-identical artifacts for any
//     GOMAXPROCS;
//   - serialization transport: artifacts computed on a world that traveled
//     through the CSV save/load cycle (plain or gzip) must be byte-identical
//     to artifacts computed on the in-memory original.

// metaWorldScales are the primary-year populations of the metamorphic
// matrix: the default reproduction's neighborhood, halved and doubled once.
var metaWorldScales = []int{1000, 2000, 4000}

// metaWorldSeeds reseed each scale: the paper's date seed and two
// unrelated ones.
var metaWorldSeeds = []uint64{20140705, 7, 99}

// metaWorld scales the secondary panels with the primary population the way
// the default configuration does (gateway panel ≈ users/4, switch panel ≈
// users/5) so the whole world grows together.
func metaWorld(users int, seed uint64) broadband.WorldConfig {
	return broadband.WorldConfig{
		Seed:          seed,
		Users:         users,
		FCCUsers:      users / 4,
		Days:          2,
		SwitchTarget:  users / 5,
		MinPerCountry: 10,
	}
}

// TestMetamorphicScaleAndSeed runs the scale_invariant subset of the
// assertion manifest at every (population, seed) in the matrix.
func TestMetamorphicScaleAndSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic matrix builds 9 worlds; skipped with -short")
	}
	m, err := golden.LoadManifest("testdata/assertions.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, users := range metaWorldScales {
		for _, seed := range metaWorldSeeds {
			users, seed := users, seed
			t.Run(fmt.Sprintf("users=%d/seed=%d", users, seed), func(t *testing.T) {
				t.Parallel()
				world, err := broadband.BuildWorld(metaWorld(users, seed))
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range broadband.Experiments() {
					checks := m.Checks(e.ID)
					rep, err := broadband.Run(e.ID, &world.Data, seed)
					if err != nil {
						t.Errorf("%s: %v", e.ID, err)
						continue
					}
					v, err := golden.ToValue(rep)
					if err != nil {
						t.Errorf("%s: %v", e.ID, err)
						continue
					}
					for _, viol := range golden.EvalChecks(v, checks, true) {
						t.Errorf("%s: %s", e.ID, viol)
					}
				}
			})
		}
	}
}

// marshalReports serializes every registry artifact of a dataset to its
// canonical golden form, keyed by artifact ID.
func marshalReports(t *testing.T, d *broadband.Dataset, seed uint64) map[string][]byte {
	t.Helper()
	reports, err := broadband.RunAll(d, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(reports))
	for i, e := range broadband.Experiments() {
		b, err := golden.Marshal(reports[i])
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out[e.ID] = b
	}
	return out
}

// TestWorkerCountEquivalence checks that the experiment fan-out is
// deterministic in GOMAXPROCS: sequential, default and oversized settings
// must produce byte-identical canonical artifacts.
func TestWorkerCountEquivalence(t *testing.T) {
	w := apiTestWorld(t)
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	want := marshalReports(t, &w.Data, 7)
	for _, procs := range []int{prev, 3} {
		runtime.GOMAXPROCS(procs)
		got := marshalReports(t, &w.Data, 7)
		for id, b := range want {
			if !bytes.Equal(b, got[id]) {
				t.Errorf("GOMAXPROCS=%d: %s differs from sequential run", procs, id)
			}
		}
	}
}

// TestTransportEquivalence checks that the CSV transport is invisible to
// the analyses: artifacts computed on a saved-and-reloaded world (plain and
// gzip) are byte-identical to artifacts computed on its canonical on-disk
// form. Unit-scaled fields (Mbps, ms, percent) round once on the first
// save, so the fixed point — one cycle in — is the reference, the same
// contract TestScaledFieldsStableAfterOneCycle pins at the codec layer.
func TestTransportEquivalence(t *testing.T) {
	w := apiTestWorld(t)
	canon := filepath.Join(t.TempDir(), "canon")
	if err := w.Data.SaveDir(canon); err != nil {
		t.Fatal(err)
	}
	base, err := broadband.LoadDataset(canon)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReports(t, base, 7)
	for _, gzip := range []bool{false, true} {
		name := "plain"
		if gzip {
			name = "gzip"
		}
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), name)
			if err := broadband.SaveDataset(base, dir, broadband.SaveOptions{Gzip: gzip}); err != nil {
				t.Fatal(err)
			}
			loaded, err := broadband.LoadDataset(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := marshalReports(t, loaded, 7)
			for id, b := range want {
				if !bytes.Equal(b, got[id]) {
					t.Errorf("%s: %s drifted through the %s transport", name, id, name)
				}
			}
		})
	}
}
