package experiments

import (
	"strings"
	"testing"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/golden"
	"github.com/nwca/broadband/internal/synth"
)

func streamManifest(t *testing.T) *golden.Manifest {
	t.Helper()
	m, err := golden.LoadManifest("testdata/stream_tolerances.json")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOverviewSketchVsExact is the sketch-accuracy gate of the streaming
// layer: the one-pass overview must agree with the exact in-core reference
// within the tolerances declared in testdata/stream_tolerances.json —
// moments at float precision, quantiles at ECDF bin resolution, extremes
// and counts exactly.
func TestOverviewSketchVsExact(t *testing.T) {
	t.Parallel()
	d := evalData(t)
	m := streamManifest(t)

	exact, err := OverviewExact(d.Panel())
	if err != nil {
		t.Fatal(err)
	}
	sketch, err := OverviewFromSource(d.Panel().Source())
	if err != nil {
		t.Fatal(err)
	}
	if sketch.Users != exact.Users {
		t.Fatalf("sketch saw %d users, exact %d", sketch.Users, exact.Users)
	}

	want, err := golden.ToValue(exact)
	if err != nil {
		t.Fatal(err)
	}
	got, err := golden.ToValue(sketch)
	if err != nil {
		t.Fatal(err)
	}
	diffs := golden.Compare(want, got, golden.Options{
		Tolerances: m.Tolerances,
		Artifact:   "StreamOverview",
	})
	for _, diff := range diffs {
		t.Errorf("sketch drifts from exact: %s", diff)
	}
	// The manifest's qualitative checks must hold for both shapes.
	for _, v := range golden.EvalChecks(want, m.Checks("StreamOverview"), false) {
		t.Errorf("exact overview violates manifest: %s", v)
	}
	for _, v := range golden.EvalChecks(got, m.Checks("StreamOverview"), false) {
		t.Errorf("sketch overview violates manifest: %s", v)
	}
	if !strings.Contains(sketch.Render(), "end-host users") {
		t.Error("Render is missing the population line")
	}
}

// TestOverviewScaleInvariantChecks evaluates the manifest's scale-invariant
// assertions on worlds the default reproduction config never sees — small,
// reseeded, gzip-sharded on disk — streaming one through StreamUsersDir to
// pin the source-vs-slice equivalence along the way.
func TestOverviewScaleInvariantChecks(t *testing.T) {
	t.Parallel()
	m := streamManifest(t)
	for _, cfg := range []synth.Config{
		{Seed: 5, Users: 300, FCCUsers: 60, Days: 1, SwitchTarget: -1},
		{Seed: 77, Users: 900, FCCUsers: 100, Days: 1, SwitchTarget: -1, MinPerCountry: 3},
	} {
		dir := t.TempDir()
		rep, err := synth.BuildSharded(t.Context(), cfg, synth.ShardSpec{Dir: dir, Shards: 4, Gzip: true})
		if err != nil {
			t.Fatal(err)
		}
		us, err := dataset.StreamUsersDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		sketch, err := OverviewFromSource(us)
		us.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sketch.Users >= int64(rep.Users) {
			t.Fatalf("seed=%d: overview counted %d Dasu users of %d total (gateway rows must be excluded)", cfg.Seed, sketch.Users, rep.Users)
		}
		v, err := golden.ToValue(sketch)
		if err != nil {
			t.Fatal(err)
		}
		for _, violation := range golden.EvalChecks(v, m.Checks("StreamOverview"), true) {
			t.Errorf("seed=%d: %s", cfg.Seed, violation)
		}
	}
}

// TestOverviewEmptyPanel pins the error contract: a source with no Dasu
// rows is an error, not a zero-filled artifact.
func TestOverviewEmptyPanel(t *testing.T) {
	t.Parallel()
	empty := dataset.BuildPanel(nil)
	if _, err := OverviewFromSource(empty.Source()); err == nil {
		t.Error("empty source produced an overview")
	}
	gw := dataset.BuildPanel([]dataset.User{{ID: 1, Vantage: dataset.VantageGateway}})
	if _, err := OverviewFromSource(gw.Source()); err == nil {
		t.Error("gateway-only source produced an overview")
	}
	if _, err := OverviewExact(empty); err == nil {
		t.Error("OverviewExact of an empty panel produced an overview")
	}
	if _, err := OverviewExact(gw); err == nil {
		t.Error("OverviewExact of a gateway-only panel produced an overview")
	}
}
