package broadband_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
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

// renderGolden holds the 20 registry Render() texts at the canonical world,
// concatenated in registry order: the text /reports and bbrepro print.
const renderGolden = "testdata/golden/render.txt"

// TestGoldenArtifacts is the golden-regression gate: every registry
// artifact regenerated at the canonical world (cli.CanonicalWorld, the world
// the committed goldens were generated from) must match its checked-in
// golden byte-for-byte (the pipeline is deterministic), its rendered text
// must match renderGolden byte-for-byte, and it must satisfy the assertion
// manifest. Run with -update after an intentional model change, then review
// the golden diff like any other code change.
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
	var text strings.Builder
	for i, e := range entries {
		rep, err := broadband.Run(e.ID, &world.Data, cli.CanonicalWorld.Seed)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		arts[i] = golden.Artifact{ID: e.ID, Obj: rep}
		text.WriteString(rep.Render())
	}
	if *updateGolden {
		if err := golden.Update(arts, "testdata/golden"); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(renderGolden, []byte(text.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %d goldens and %s", len(arts), renderGolden)
	}
	want, err := os.ReadFile(renderGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := []byte(text.String()); !bytes.Equal(got, want) {
		t.Errorf("rendered text differs from %s:\n%s", renderGolden, firstLineDiff(want, got))
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

// firstLineDiff names the first line at which two texts differ.
func firstLineDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "texts differ"
}
