package golden

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	t.Parallel()
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindNum: "number",
		KindStr: "string", KindArr: "array", KindObj: "object",
		Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestValueFieldAndRender(t *testing.T) {
	t.Parallel()
	v, err := Parse([]byte(`{"A": 1, "B": [1, 2], "C": "x"}`))
	if err != nil {
		t.Fatal(err)
	}
	if f := v.Field("A"); f == nil || f.Num != 1 {
		t.Errorf("Field(A) = %v", f)
	}
	if v.Field("Missing") != nil {
		t.Error("Field on a missing key must be nil")
	}
	if v.Field("A").Field("X") != nil {
		t.Error("Field on a non-object must be nil")
	}
	var nilv *Value
	if nilv.Field("A") != nil {
		t.Error("Field on a nil value must be nil")
	}
	if got := nilv.Render(); got != "<missing>" {
		t.Errorf("nil Render = %q", got)
	}
	if got := v.Render(); !strings.HasPrefix(got, "object{") {
		t.Errorf("object Render = %q", got)
	}
	if got := v.Field("B").Render(); got != "array[2]" {
		t.Errorf("array Render = %q", got)
	}
	if got := v.Field("C").Render(); got != `"x"` {
		t.Errorf("scalar Render = %q", got)
	}
}

func TestToValueUnsupportedAndNil(t *testing.T) {
	t.Parallel()
	v, err := ToValue(nil)
	if err != nil || v.Kind != KindNull {
		t.Errorf("ToValue(nil) = %v, %v", v, err)
	}
	if _, err := ToValue(make(chan int)); err == nil {
		t.Error("channel must be unsupported")
	}
	if _, err := Marshal(map[int]int{1: 2}); err == nil {
		t.Error("non-string map keys must be unsupported")
	}
	// Errors propagate out of containers with the path named.
	type bad struct{ Rows []chan int }
	if _, err := ToValue(bad{Rows: make([]chan int, 1)}); err == nil || !strings.Contains(err.Error(), "Rows/0") {
		t.Errorf("nested unsupported value must name its path, got %v", err)
	}
	if _, err := ToValue(map[string]chan int{"k": nil}); err == nil {
		t.Error("unsupported map value must error")
	}
}

func TestEncodeEmptyContainers(t *testing.T) {
	t.Parallel()
	type obj struct {
		P     *int
		Empty []int
		ByKey map[string]int
		On    bool
	}
	data, err := Marshal(obj{Empty: []int{}, ByKey: map[string]int{}, On: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"P": null`, `"Empty": []`, `"ByKey": {}`, `"On": true`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("output missing %q:\n%s", want, data)
		}
	}
	// And the empty forms parse back to the same bytes.
	v, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Encode()) != string(data) {
		t.Errorf("empty containers not a Parse∘Encode fixed point:\n%s\nvs\n%s", data, v.Encode())
	}
}

func TestParseErrors(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"invalid":       `{"A": }`,
		"trailing data": `{"A": 1} extra`,
		"unclosed":      `[1, 2`,
		"huge number":   `[1e999]`,
		"empty":         ``,
	}
	for name, in := range cases {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("%s: Parse(%q) should fail", name, in)
		}
	}
}

func TestLoadManifest(t *testing.T) {
	t.Parallel()
	file := filepath.Join(t.TempDir(), "assertions.json")
	doc := `{"artifacts": [{"id": "Fig. 1", "checks": [{"name": "x", "path": "A", "op": "sign", "sign": 1}]}]}`
	if err := os.WriteFile(file, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Checks("Fig. 1")) != 1 {
		t.Errorf("loaded manifest lost its checks: %+v", m)
	}
	if _, err := LoadManifest(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing manifest file must error")
	}
}

func TestParseManifestErrors(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"invalid json": `{`,
		"empty id":     `{"artifacts": [{"id": "", "checks": []}]}`,
		"path and paths": `{"artifacts": [{"id": "A", "checks": [
			{"name": "x", "path": "A", "paths": ["B"], "op": "range", "min": 0}]}]}`,
		"range without bounds": `{"artifacts": [{"id": "A", "checks": [
			{"name": "x", "path": "A", "op": "range"}]}]}`,
		"sign out of range": `{"artifacts": [{"id": "A", "checks": [
			{"name": "x", "path": "A", "op": "sign", "sign": 5}]}]}`,
	}
	for name, doc := range cases {
		if _, err := ParseManifest([]byte(doc)); err == nil {
			t.Errorf("%s: ParseManifest should fail", name)
		}
	}
}

func TestViolationAndDiffStrings(t *testing.T) {
	t.Parallel()
	v := Violation{Check: "range", Msg: "out of bounds"}
	if got := v.String(); got != "range: out of bounds" {
		t.Errorf("Violation.String() = %q", got)
	}
	d := Diff{Path: "A", Want: "1", Got: "2"}
	if got := d.String(); got != "A: want 1, got 2" {
		t.Errorf("Diff.String() = %q", got)
	}
	d.Msg = "drift +1"
	if got := d.String(); got != "A: drift +1 (want 1, got 2)" {
		t.Errorf("Diff.String() with msg = %q", got)
	}
}

func TestEvalCheckNonNumber(t *testing.T) {
	t.Parallel()
	v, err := Parse([]byte(`{"Name": "Fig. 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	vio := EvalChecks(v, []Check{{Name: "x", Path: "Name", Op: "range", Min: floatp(0)}}, false)
	if len(vio) != 1 || !strings.Contains(vio[0].Msg, "not a number") {
		t.Errorf("selecting a string must violate, got %v", vio)
	}
}

func TestCompareMissingAndKindChange(t *testing.T) {
	t.Parallel()
	num, _ := Parse([]byte(`1`))
	str, _ := Parse([]byte(`"1"`))
	flag, _ := Parse([]byte(`true`))
	unflag, _ := Parse([]byte(`false`))
	if diffs := Compare(nil, num, "", nil); len(diffs) != 1 || diffs[0].Msg != "missing value" {
		t.Errorf("nil want: %v", diffs)
	}
	if diffs := Compare(num, nil, "", nil); len(diffs) != 1 {
		t.Errorf("nil got: %v", diffs)
	}
	if diffs := Compare(nil, nil, "", nil); len(diffs) != 0 {
		t.Errorf("nil vs nil: %v", diffs)
	}
	if diffs := Compare(num, str, "", nil); len(diffs) != 1 || !strings.Contains(diffs[0].Msg, "kind changed") {
		t.Errorf("kind change: %v", diffs)
	}
	if diffs := Compare(flag, unflag, "", nil); len(diffs) != 1 {
		t.Errorf("bool flip: %v", diffs)
	}
}

func TestFormatDriftZeroBaseline(t *testing.T) {
	t.Parallel()
	want, _ := Parse([]byte(`{"A": 0}`))
	got, _ := Parse([]byte(`{"A": 0.5}`))
	diffs := Compare(want, got, "", nil)
	if len(diffs) != 1 {
		t.Fatalf("want one diff, got %v", diffs)
	}
	// No percentage against a zero baseline.
	if strings.Contains(diffs[0].Msg, "%") || !strings.Contains(diffs[0].Msg, "+0.5") {
		t.Errorf("zero-baseline drift message = %q", diffs[0].Msg)
	}
}

func TestReportRenderBranches(t *testing.T) {
	t.Parallel()
	r := &Report{Artifacts: []ArtifactReport{
		{ID: "Fig. 1"},
		{ID: "Fig. 2", Err: "boom"},
		{ID: "Fig. 3", Missing: true},
		{ID: "Fig. 4", Violations: []Violation{{Check: "c", Msg: "m"}}},
	}}
	out := r.Render()
	for _, want := range []string{"ok   Fig. 1", "FAIL Fig. 2: boom", "no golden file", "assert c: m"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	if r.OK() || r.Failed() != 3 {
		t.Errorf("OK/Failed wrong: ok=%v failed=%d", r.OK(), r.Failed())
	}
}

func TestVerifyHarnessErrorPaths(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()

	// A corrupt golden file is an artifact error, not a panic.
	if err := os.WriteFile(GoldenPath(dir, "Fig. 1"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Verify([]Artifact{{ID: "Fig. 1", Obj: sampleValue()}}, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() || !strings.Contains(r.Artifacts[0].Err, "golden file") {
		t.Errorf("corrupt golden: %+v", r.Artifacts[0])
	}

	// An unserializable artifact is reported, and assertions are skipped.
	m := &Manifest{Artifacts: []ArtifactAssertions{{ID: "Fig. 2", Checks: []Check{
		{Name: "x", Path: "A", Op: "range", Min: floatp(0)},
	}}}}
	r, err = Verify([]Artifact{{ID: "Fig. 2", Obj: make(chan int)}}, dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() || r.Artifacts[0].Err == "" || len(r.Artifacts[0].Violations) != 0 {
		t.Errorf("unserializable artifact: %+v", r.Artifacts[0])
	}

	// A golden path that cannot be read (it is a directory) is an error too.
	if err := os.MkdirAll(GoldenPath(dir, "Fig. 3"), 0o755); err != nil {
		t.Fatal(err)
	}
	r, err = Verify([]Artifact{{ID: "Fig. 3", Obj: sampleValue()}}, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() || r.Artifacts[0].Err == "" {
		t.Errorf("unreadable golden: %+v", r.Artifacts[0])
	}
}

func TestUpdateErrorPaths(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if err := Update([]Artifact{{ID: "Fig. 1", Obj: make(chan int)}}, dir); err == nil {
		t.Error("unserializable artifact must abort Update")
	}
	// A directory squatting on the golden path blocks the write.
	if err := os.MkdirAll(GoldenPath(dir, "Fig. 2"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Update([]Artifact{{ID: "Fig. 2", Obj: sampleValue()}}, dir); err == nil {
		t.Error("unwritable golden path must abort Update")
	}
	// MkdirAll failure: the target dir is an existing file.
	file := filepath.Join(t.TempDir(), "flat")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Update([]Artifact{{ID: "Fig. 3", Obj: sampleValue()}}, file); err == nil {
		t.Error("file in place of the golden dir must abort Update")
	}
}
