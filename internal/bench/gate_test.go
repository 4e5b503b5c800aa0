package bench

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestArtifactSlug pins the per-artifact trajectory keys: the artifact_*
// spec names (golden.Slug of each registry ID), in order, must equal the
// ones recorded in BENCH_10.json, or every artifact's history would be
// orphaned.
func TestArtifactSlug(t *testing.T) {
	f, err := os.Open("../../BENCH_10.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	traj, err := ReadTrajectory(f)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, r := range traj.Benchmarks {
		if strings.HasPrefix(r.Name, "artifact_") {
			want = append(want, r.Name)
		}
	}
	for _, s := range Specs() {
		if strings.HasPrefix(s.Name, "artifact_") {
			got = append(got, s.Name)
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("artifact spec names = %v\nBENCH_10.json keys = %v", got, want)
	}
}

func TestSpecsIncludeArtifactSubBenchmarks(t *testing.T) {
	byName := map[string]Spec{}
	for _, s := range Specs() {
		byName[s.Name] = s
	}
	// One sub-spec per registry artifact, full-set only.
	for _, name := range []string{"artifact_fig01", "artifact_fig12", "artifact_table02", "artifact_table08"} {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("spec %q missing", name)
		}
		if s.Smoke {
			t.Errorf("%s is in the smoke set; per-artifact specs are full-set only", name)
		}
	}
	// The gated hot paths carry the allocation gate; run_all is in CI's
	// smoke set so the gate actually runs on every push.
	for _, name := range []string{"run_all", "world_build_150u"} {
		s := byName[name]
		if !s.GateAllocs {
			t.Errorf("%s should gate allocs/op", name)
		}
		if !s.Smoke {
			t.Errorf("%s should be in the smoke set", name)
		}
	}
	gate := AllocGate(Specs())
	if !gate["run_all"] || !gate["world_build_150u"] {
		t.Fatalf("AllocGate = %v, missing gated specs", gate)
	}
	if gate["matcher_1000"] {
		t.Error("AllocGate includes an ungated spec")
	}
}

func TestCompareGatedAllocs(t *testing.T) {
	base := NewTrajectory(time.Unix(0, 0))
	base.Benchmarks = []Result{
		{Name: "gated", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "ungated", NsPerOp: 1000, AllocsPerOp: 100},
	}
	cur := NewTrajectory(time.Unix(0, 0))
	cur.Benchmarks = []Result{
		{Name: "gated", NsPerOp: 1000, AllocsPerOp: 150},
		{Name: "ungated", NsPerOp: 1000, AllocsPerOp: 150},
	}
	deltas, missing, err := CompareGated(cur, base, 0.20, map[string]bool{"gated": true})
	if err != nil || len(missing) != 0 {
		t.Fatalf("CompareGated: %v, missing %v", err, missing)
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	g := byName["gated"]
	if !g.AllocGated || !g.AllocRegressed || g.Regressed {
		t.Fatalf("gated delta = %+v; want alloc regression only", g)
	}
	if g.BaseAllocs != 100 || g.CurAllocs != 150 || g.AllocRatio != 1.5 {
		t.Fatalf("gated alloc fields = %+v", g)
	}
	u := byName["ungated"]
	if u.AllocGated || u.AllocRegressed {
		t.Fatalf("ungated delta = %+v; alloc growth must not fail ungated specs", u)
	}
	if u.AllocRatio != 1.5 {
		t.Fatalf("ungated delta should still report alloc ratio: %+v", u)
	}

	if reg := Regressions(deltas); len(reg) != 1 || reg[0].Name != "gated" {
		t.Fatalf("Regressions = %+v; want the gated alloc failure only", reg)
	}

	// Within tolerance: no failure.
	cur.Benchmarks[0].AllocsPerOp = 110
	deltas, _, err = CompareGated(cur, base, 0.20, map[string]bool{"gated": true})
	if err != nil {
		t.Fatal(err)
	}
	if reg := Regressions(deltas); len(reg) != 0 {
		t.Fatalf("Regressions = %+v; 10%% alloc growth is within tolerance", reg)
	}

	// A nil gate never alloc-gates.
	cur.Benchmarks[0].AllocsPerOp = 500
	deltas, _, err = CompareGated(cur, base, 0.20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reg := Regressions(deltas); len(reg) != 0 {
		t.Fatalf("CompareGated gated allocs without a gate: %+v", reg)
	}
}

func TestMissingUnknown(t *testing.T) {
	universe := []Spec{{Name: "run_all"}, {Name: "server_query"}}
	// A missing name still defined somewhere in the universe is a set
	// mismatch, not a retirement; only truly unknown names survive.
	got := MissingUnknown([]string{"run_all", "old_matcher", "server_query", "ghost"}, universe)
	if len(got) != 2 || got[0] != "old_matcher" || got[1] != "ghost" {
		t.Fatalf("MissingUnknown = %v, want [old_matcher ghost]", got)
	}
	if got := MissingUnknown(nil, universe); got != nil {
		t.Fatalf("MissingUnknown(nil) = %v", got)
	}
	if got := MissingUnknown([]string{"run_all"}, universe); got != nil {
		t.Fatalf("known-only missing list produced %v", got)
	}
}

func TestSmokeSetIncludesServerQuery(t *testing.T) {
	smoke, err := Select("smoke")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range smoke {
		if s.Name == "server_query" {
			return
		}
	}
	t.Fatal("server_query spec not in the smoke set")
}
