package golden

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

type inner struct {
	Name string
	R    float64
}

type sample struct {
	ID      string
	Count   int
	Flag    bool
	Ratio   float64
	Rows    []inner
	ByKey   map[string]float64
	Hidden  string `golden:"-"`
	Renamed int    `golden:"Alias"`
	private int
}

func sampleValue() sample {
	tenth, fifth := 0.1, 0.2 // runtime sum: 0.30000000000000004
	return sample{
		ID: "Table X", Count: 3, Flag: true, Ratio: tenth + fifth,
		Rows:    []inner{{"a", 0.5}, {"b", -1.25}},
		ByKey:   map[string]float64{"z": 1, "a": 2},
		Hidden:  "never serialized",
		Renamed: 7,
		private: 9,
	}
}

func TestMarshalCanonicalAndRoundTrip(t *testing.T) {
	t.Parallel()
	data, err := Marshal(sampleValue())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if strings.Contains(s, "Hidden") || strings.Contains(s, "private") {
		t.Errorf("tagged/unexported fields leaked into output:\n%s", s)
	}
	if !strings.Contains(s, "\"Alias\": 7") {
		t.Errorf("renamed field missing:\n%s", s)
	}
	// Map keys sort: "a" before "z".
	if strings.Index(s, "\"a\":") > strings.Index(s, "\"z\":") {
		t.Errorf("map keys not sorted:\n%s", s)
	}
	// 0.1+0.2 must round-trip exactly through the shortest representation.
	if !strings.Contains(s, "0.30000000000000004") {
		t.Errorf("float not round-trippable:\n%s", s)
	}
	// Parse → Encode must be a fixed point.
	v, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(v.Encode()); got != s {
		t.Errorf("Parse∘Encode not a fixed point:\nfirst:\n%s\nsecond:\n%s", s, got)
	}
	// And the parsed tree must compare clean against the original.
	orig, err := ToValue(sampleValue())
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(v, orig, "", nil); len(diffs) != 0 {
		t.Errorf("round-tripped tree differs: %v", diffs)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	t.Parallel()
	a, err := Marshal(sampleValue())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b, err := Marshal(sampleValue())
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("marshal not deterministic:\n%s\nvs\n%s", a, b)
		}
	}
}

func TestNonFiniteFloats(t *testing.T) {
	t.Parallel()
	type nf struct{ A, B, C float64 }
	data, err := Marshal(nf{math.NaN(), math.Inf(1), math.Inf(-1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"NaN"`, `"+Inf"`, `"-Inf"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("output missing %s:\n%s", want, data)
		}
	}
	// NaN must compare equal to NaN: regenerate and diff.
	w, _ := ToValue(nf{math.NaN(), math.Inf(1), math.Inf(-1)})
	g, _ := ToValue(nf{math.NaN(), math.Inf(1), math.Inf(-1)})
	if diffs := Compare(w, g, "", nil); len(diffs) != 0 {
		t.Errorf("NaN/Inf not self-equal: %v", diffs)
	}
	// But NaN vs a number is a diff.
	g2, _ := ToValue(nf{1, math.Inf(1), math.Inf(-1)})
	if diffs := Compare(w, g2, "", nil); len(diffs) != 1 {
		t.Errorf("NaN vs 1 should be one diff, got %v", diffs)
	}
}

func TestCompareTolerances(t *testing.T) {
	t.Parallel()
	type obj struct {
		Exact float64
		Loose float64
		Rows  []float64
	}
	want, _ := ToValue(obj{Exact: 1, Loose: 100, Rows: []float64{1, 2, 3}})
	got, _ := ToValue(obj{Exact: 1, Loose: 100.4, Rows: []float64{1, 2, 3.0001}})

	// No tolerance: two diffs.
	if diffs := Compare(want, got, "", nil); len(diffs) != 2 {
		t.Fatalf("want 2 diffs, got %v", diffs)
	}
	// Absolute rule on Loose, relative rule on the rows.
	tols := []Tolerance{
		{Path: "Loose", Abs: 0.5},
		{Path: "Rows/*", Rel: 1e-3},
	}
	if diffs := Compare(want, got, "", tols); len(diffs) != 0 {
		t.Errorf("tolerances should absorb drift, got %v", diffs)
	}
	// Artifact-scoped rule only applies to its artifact.
	scoped := []Tolerance{
		{Artifact: "Fig. 1", Path: "Loose", Abs: 0.5},
		{Path: "Rows/*", Rel: 1e-3},
	}
	if diffs := Compare(want, got, "Fig. 9", scoped); len(diffs) != 1 {
		t.Errorf("rule for another artifact must not apply, got %v", diffs)
	}
}

func TestCompareStructural(t *testing.T) {
	t.Parallel()
	want, _ := Parse([]byte(`{"A": 1, "B": [1, 2], "C": "x"}`))
	got, _ := Parse([]byte(`{"A": "1", "B": [1], "D": true}`))
	diffs := Compare(want, got, "", nil)
	msgs := map[string]bool{}
	for _, d := range diffs {
		msgs[d.Path] = true
	}
	for _, p := range []string{"A", "B", "C", "D"} {
		if !msgs[p] {
			t.Errorf("expected a diff at %s, got %v", p, diffs)
		}
	}
}

// Arrays compare in order: two swapped rows are a diff.
func TestCompareSetOrder(t *testing.T) {
	t.Parallel()
	want, _ := Parse([]byte(`{"Rows": [{"K": "a", "V": 1}, {"K": "b", "V": 2}]}`))
	got, _ := Parse([]byte(`{"Rows": [{"K": "b", "V": 2}, {"K": "a", "V": 1}]}`))
	if diffs := Compare(want, got, "", nil); len(diffs) == 0 {
		t.Error("an ordered comparison should flag the swap")
	}
}

func TestSelect(t *testing.T) {
	t.Parallel()
	v, err := Parse([]byte(`{
		"Panels": [{"R": 0.9, "N": 1}, {"R": 0.8, "N": 2}],
		"MeanSlow": 1, "MeanFast": 2
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sel := Select(v, "Panels/*/R")
	if len(sel) != 2 || sel[0].V.Num != 0.9 || sel[1].V.Num != 0.8 {
		t.Errorf("Panels/*/R selected %v", sel)
	}
	// Glob over sibling scalars selects in key order.
	sel = Select(v, "Mean*")
	if len(sel) != 2 || sel[0].Path != "MeanSlow" || sel[1].Path != "MeanFast" {
		t.Errorf("Mean* selected %v", sel)
	}
}

func floatp(f float64) *float64 { return &f }

func TestEvalChecks(t *testing.T) {
	t.Parallel()
	v, err := Parse([]byte(`{
		"Rows": [
			{"Frac": 0.778, "P": 1e-6, "Skipped": false},
			{"Frac": 0, "P": 0, "Skipped": true},
			{"Frac": 0.61, "P": 0.002, "Skipped": false},
			{"Frac": 0.65, "P": 0.04, "Skipped": false}
		],
		"Slow": 1.0, "Fast": 2.0,
		"Delta": -0.25
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		c    Check
		ok   bool
	}{
		{"range over populated rows", Check{Path: "Rows/*/Frac", Op: "range", Min: floatp(0.5), MinCount: 3}, true},
		{"a skipped row does not count toward min_count", Check{Path: "Rows/*/Frac", Op: "range", Min: floatp(0.5), MinCount: 4}, false},
		{"peak_first on the ladder", Check{Path: "Rows/*/Frac", Op: "peak_first"}, true},
		{"nonincreasing fails on the wobble", Check{Path: "Rows/*/Frac", Op: "nonincreasing"}, false},
		{"nonincreasing with slack", Check{Path: "Rows/*/Frac", Op: "nonincreasing", Tol: 0.05}, true},
		{"ordering across fields", Check{Paths: []string{"Slow", "Fast"}, Op: "nondecreasing"}, true},
		{"ordering violated", Check{Paths: []string{"Fast", "Slow"}, Op: "nondecreasing"}, false},
		{"sign", Check{Path: "Delta", Op: "sign", Sign: -1}, true},
		{"wrong sign", Check{Path: "Delta", Op: "sign", Sign: 1}, false},
		{"stale path fails", Check{Path: "NoSuchField", Op: "range", Min: floatp(0)}, false},
		{"min_count enforced", Check{Path: "Rows/*/Frac", Op: "range", Min: floatp(0), MinCount: 10}, false},
	}
	for _, tc := range cases {
		tc.c.Name = tc.name
		vio := EvalChecks(v, []Check{tc.c}, false)
		if ok := len(vio) == 0; ok != tc.ok {
			t.Errorf("%s: ok=%v want %v (violations %v)", tc.name, ok, tc.ok, vio)
		}
	}
	// Scale-invariant filtering: a failing non-SI check is skipped.
	failing := Check{Name: "f", Path: "Delta", Op: "sign", Sign: 1}
	if vio := EvalChecks(v, []Check{failing}, true); len(vio) != 0 {
		t.Errorf("non-scale-invariant check must be skipped, got %v", vio)
	}
}

// TestSkippedRowsAreNotRead pins how a check reads a ladder: a row marked
// Skipped (too few pairs) is not selected, and a populated row whose
// every pair contradicts the hypothesis reads as its true 0 — the case a
// zero-dropping filter would pass silently.
func TestSkippedRowsAreNotRead(t *testing.T) {
	t.Parallel()
	v, err := Parse([]byte(`{
		"Rows": [
			{"Result": {"Binomial": {"Fraction": 0.7}}, "Skipped": false},
			{"Result": {"Binomial": {"Fraction": 0}}, "Skipped": true},
			{"Result": {"Binomial": {"Fraction": 0}}, "Skipped": false}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	floor := Check{Name: "floor", Path: "Rows/*/Result/Binomial/Fraction", Op: "range", Min: floatp(0.45)}
	vio := EvalChecks(v, []Check{floor}, false)
	if len(vio) != 1 || !strings.Contains(vio[0].Msg, "Rows/2/Result/Binomial/Fraction = 0 below min") {
		t.Errorf("a populated rung at 0 must fail the floor, got %v", vio)
	}
	named := Check{Name: "named", Path: "Rows/1/Result/Binomial/Fraction", Op: "range", Min: floatp(0.45)}
	vio = EvalChecks(v, []Check{named}, false)
	if len(vio) != 1 || !strings.Contains(vio[0].Msg, "selected 0 values") {
		t.Errorf("a skipped row named by path must select nothing, got %v", vio)
	}
}

func TestManifestValidation(t *testing.T) {
	t.Parallel()
	if _, err := ParseManifest([]byte(`{"artifacts": [{"id": "Fig. 1", "checks": [{"name": "x", "op": "range"}]}]}`)); err == nil {
		t.Error("check without path must fail validation")
	}
	if _, err := ParseManifest([]byte(`{"artifacts": [{"id": "Fig. 1", "checks": [{"name": "x", "path": "A", "op": "wat"}]}]}`)); err == nil {
		t.Error("unknown op must fail validation")
	}
	m, err := ParseManifest([]byte(`{"artifacts": [{"id": "Fig. 1", "checks": [{"name": "x", "path": "A", "op": "range", "min": 0}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Checks("Fig. 1")) != 1 || m.Checks("Fig. 2") != nil {
		t.Error("Checks lookup broken")
	}
}

func TestSlug(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"Fig. 1":   "fig01",
		"Fig. 12":  "fig12",
		"Table 2":  "table02",
		"Table 10": "table10",
		"Ext. A":   "exta",
	}
	for id, want := range cases {
		if got := Slug(id); got != want {
			t.Errorf("Slug(%q) = %q, want %q", id, got, want)
		}
	}
}

func TestVerifyUpdateCycle(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "golden")
	arts := []Artifact{{ID: "Fig. 1", Obj: sampleValue()}}

	// Before update: missing golden fails verification.
	r, err := Verify(arts, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() || !r.Artifacts[0].Missing {
		t.Fatalf("missing golden must fail: %+v", r.Artifacts[0])
	}

	if err := Update(arts, dir); err != nil {
		t.Fatal(err)
	}
	r, err = Verify(arts, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("fresh goldens must verify: %s", r.Render())
	}

	// A perturbed regeneration must fail with the drifted field named.
	pert := sampleValue()
	pert.Ratio *= 1.01
	r, err = Verify([]Artifact{{ID: "Fig. 1", Obj: pert}}, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() || r.Failed() != 1 {
		t.Fatal("perturbation must fail verification")
	}
	if !strings.Contains(r.Render(), "Ratio") {
		t.Errorf("drift report must name the drifted field:\n%s", r.Render())
	}
	if !strings.Contains(string(r.JSON()), "\"path\": \"Ratio\"") {
		t.Errorf("JSON report must carry the drift path:\n%s", r.JSON())
	}
}
