package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleTrajectory() *Trajectory {
	t := NewTrajectory(time.Date(2014, 7, 5, 12, 0, 0, 0, time.UTC))
	t.Benchmarks = []Result{
		{Name: "fluid_day", Iters: 5000, NsPerOp: 200190.4, AllocsPerOp: 88, BytesPerOp: 87521},
		{Name: "stream_encode_2000", Iters: 800, NsPerOp: 1.5e6, AllocsPerOp: 3, BytesPerOp: 4096, MBPerS: 150.2},
	}
	return t
}

// TestTrajectoryRoundTrip pins the JSON contract: what bbbench writes,
// bbbench (and the CI gate) can read back identically.
func TestTrajectoryRoundTrip(t *testing.T) {
	want := sampleTrajectory()
	var buf bytes.Buffer
	if err := want.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		`"schema": "bbbench/1"`, `"ns_per_op"`, `"allocs_per_op"`,
		`"bytes_per_op"`, `"mb_per_s"`, `"created": "2014-07-05T12:00:00Z"`,
	} {
		if !strings.Contains(buf.String(), field) {
			t.Errorf("serialized trajectory missing %s:\n%s", field, buf.String())
		}
	}
	got, err := ReadTrajectory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestReadTrajectoryRejectsWrongSchema: an incompatible or corrupt file
// must be an error, never a silently empty baseline.
func TestReadTrajectoryRejectsWrongSchema(t *testing.T) {
	cases := map[string]string{
		"wrong schema":  `{"schema":"bbbench/9","go":"go1.22","os":"linux","arch":"amd64","cpus":4,"created":"x","benchmarks":[]}`,
		"unknown field": `{"schema":"bbbench/1","bogus":1}`,
		"not json":      `ns/op: 12345`,
	}
	for name, raw := range cases {
		if _, err := ReadTrajectory(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: ReadTrajectory accepted %q", name, raw)
		}
	}
}

func TestCompare(t *testing.T) {
	base := sampleTrajectory()
	cur := NewTrajectory(time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC))
	cur.Benchmarks = []Result{
		// 10% slower: within a 20% tolerance.
		{Name: "fluid_day", NsPerOp: 200190.4 * 1.10},
		// New benchmark, no baseline: not compared.
		{Name: "run_all", NsPerOp: 1e8},
	}
	deltas, missing, err := CompareGated(cur, base, 0.20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].Name != "fluid_day" {
		t.Fatalf("deltas = %+v, want exactly fluid_day", deltas)
	}
	if deltas[0].Regressed {
		t.Errorf("10%% slowdown flagged at 20%% tolerance: %+v", deltas[0])
	}
	if got := deltas[0].Ratio; got < 1.09 || got > 1.11 {
		t.Errorf("ratio = %v, want ~1.10", got)
	}
	// The dropped benchmark must be reported, not silently ignored.
	if len(missing) != 1 || missing[0] != "stream_encode_2000" {
		t.Errorf("missing = %v, want [stream_encode_2000]", missing)
	}

	// Beyond tolerance: flagged.
	cur.Benchmarks[0].NsPerOp = 200190.4 * 1.35
	deltas, _, err = CompareGated(cur, base, 0.20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !deltas[0].Regressed {
		t.Errorf("35%% slowdown not flagged at 20%% tolerance: %+v", deltas[0])
	}
	if reg := Regressions(deltas); len(reg) != 1 {
		t.Errorf("Regressions = %+v, want 1", reg)
	}

	// An improvement never regresses, whatever the tolerance.
	cur.Benchmarks[0].NsPerOp = 200190.4 * 0.5
	deltas, _, err = CompareGated(cur, base, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if deltas[0].Regressed {
		t.Errorf("2x speedup flagged as regression: %+v", deltas[0])
	}

	if _, _, err := CompareGated(cur, base, -0.1, nil); err == nil {
		t.Error("negative tolerance accepted")
	}
}

// TestSpecsWellFormed pins the canonical-set contract: unique stable
// names, runnable bodies, and a nonempty smoke subset.
func TestSpecsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	smoke := 0
	for _, s := range Specs() {
		if s.Name == "" || s.Run == nil {
			t.Fatalf("malformed spec %+v", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate spec name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Smoke {
			smoke++
		}
	}
	if smoke == 0 {
		t.Fatal("no smoke specs: the CI gate would measure nothing")
	}
	if !seen["run_all"] || !seen["fluid_day"] || !seen["packet_ndt"] {
		t.Fatalf("canonical specs missing from %v", seen)
	}

	full, err := Select("full")
	if err != nil || len(full) != len(Specs()) {
		t.Fatalf("Select(full) = %d specs, err %v", len(full), err)
	}
	sm, err := Select("smoke")
	if err != nil || len(sm) != smoke {
		t.Fatalf("Select(smoke) = %d specs, err %v; want %d", len(sm), err, smoke)
	}
	if _, err := Select("nightly"); err == nil {
		t.Error("Select accepted unknown set")
	}
}

// TestMeasure checks the testing.Benchmark wiring on a synthetic spec,
// including the throughput conversion and the failure path.
func TestMeasure(t *testing.T) {
	r, err := Measure(Spec{Name: "noop", Run: func(b *testing.B) {
		b.SetBytes(1 << 20)
		for i := 0; i < b.N; i++ {
			_ = i
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "noop" || r.Iters <= 0 || r.NsPerOp < 0 {
		t.Fatalf("implausible result %+v", r)
	}
	if r.MBPerS <= 0 {
		t.Errorf("SetBytes spec reported no throughput: %+v", r)
	}

	if _, err := Measure(Spec{Name: "failing", Run: func(b *testing.B) {
		b.Fatal("boom")
	}}); err == nil {
		t.Error("Measure reported success for a failing benchmark")
	}
}

// TestStreamSpecsAgree runs the two cheapest real specs end to end with
// the shortest possible benchtime, proving the canonical bodies execute
// outside `go test -bench`. (The heavyweight specs are exercised by
// cmd/bbbench itself and the root bench suite.)
func TestStreamSpecsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	for _, name := range []string{"stream_encode_2000", "stream_decode_2000", "simulator_churn"} {
		var spec Spec
		for _, s := range Specs() {
			if s.Name == name {
				spec = s
			}
		}
		r, err := Measure(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Iters <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: implausible result %+v", name, r)
		}
	}
}
