package scenario

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"github.com/nwca/broadband/internal/synth"
)

// smokeWorld is the world scale the committed catalog is verified at — the
// same scale the CI gate runs (cmd/bbscenario defaults).
var smokeWorld = synth.Config{
	Users: 1000, FCCUsers: 250, Days: 2, SwitchTarget: 200, MinPerCountry: 10,
}

// The committed catalog must pass in full, at both gate seeds, through the
// parallel pool. Under -race this is also the scenario runner's
// race-detection workout: ~22 worlds built and evaluated concurrently.
func TestCommittedCatalogPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog at two seeds is minutes under -race")
	}
	packs, err := LoadDir("../../testdata/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), packs, Options{
		Base:  smokeWorld,
		Seeds: []uint64{20140705, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, p := range rep.Packs {
			for _, o := range p.Outcomes {
				if !o.Pass {
					t.Errorf("%s @ seed %d: %s", o.Name(p.Name), o.Seed, o.Msg)
				}
			}
		}
		t.Fatalf("committed catalog failed: %d of %d assertions", rep.Failed, rep.Passed+rep.Failed)
	}
	if rep.Passed < 8 {
		t.Fatalf("suspiciously few assertions: %d", rep.Passed)
	}
}

// The report is a pure function of (packs, config, seeds): GOMAXPROCS
// must not leak into it.
func TestReportDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six worlds")
	}
	packs := []*Pack{
		mustLoad(t, "../../testdata/scenarios/cap-raise.json"),
		mustLoad(t, "../../testdata/scenarios/need-flat.json"),
	}
	opt := Options{Base: smokeWorld, Seeds: []uint64{7}}
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	seq, err := Run(context.Background(), packs, opt)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	par, err := Run(context.Background(), packs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("report differs between GOMAXPROCS 1 and 4")
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	packs := []*Pack{mustLoad(t, "../../testdata/scenarios/cap-raise.json")}
	_, err := Run(ctx, packs, Options{Base: smokeWorld, Seeds: []uint64{7}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	if _, err := Run(context.Background(), nil, Options{Seeds: []uint64{1}}); err == nil {
		t.Fatal("want error for no packs")
	}
	packs := []*Pack{mustLoad(t, "../../testdata/scenarios/cap-raise.json")}
	if _, err := Run(context.Background(), packs, Options{}); err == nil {
		t.Fatal("want error for no seeds")
	}
}

func mustLoad(t *testing.T, file string) *Pack {
	t.Helper()
	p, err := LoadPack(file)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
