package broadband_test

import (
	"flag"
	"testing"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/cli"
	"github.com/nwca/broadband/internal/golden"
)

// -update regenerates testdata/golden/ from the current tree instead of
// verifying against it; `bbrepro -verify` is the command-line gate over the
// same goldens and manifest:
//
//	go test -run TestGoldenArtifacts -update .
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current tree")

// TestGoldenArtifacts is the golden-regression gate: every registry
// artifact regenerated at the canonical world (cli.CanonicalWorld, the world
// the committed goldens were generated from) must match its checked-in
// golden byte-for-byte (the pipeline is deterministic) and satisfy the
// assertion manifest. Run with -update after an intentional model change,
// then review the golden diff like any other code change.
func TestGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("canonical world generation is slow; skipped with -short")
	}
	world, err := broadband.BuildWorld(cli.CanonicalWorld)
	if err != nil {
		t.Fatal(err)
	}
	entries := broadband.Experiments()
	arts := make([]golden.Artifact, len(entries))
	for i, e := range entries {
		rep, err := broadband.Run(e.ID, &world.Data, cli.CanonicalWorld.Seed)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		arts[i] = golden.Artifact{ID: e.ID, Obj: rep}
	}
	if *updateGolden {
		if err := golden.Update(arts, "testdata/golden"); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %d goldens", len(arts))
	}
	m, err := golden.LoadManifest("testdata/assertions.json")
	if err != nil {
		t.Fatal(err)
	}
	r, err := golden.Verify(arts, "testdata/golden", m)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("%d of %d artifacts drifted:\n%s", r.Failed(), len(r.Artifacts), r.Render())
	}
}
