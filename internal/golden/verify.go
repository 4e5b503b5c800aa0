package golden

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/nwca/broadband/internal/fsx"
)

// Artifact pairs a registry ID with the typed report it produced. The
// driver serializes Obj itself, so callers pass the concrete report
// structs without adapters.
type Artifact struct {
	ID  string
	Obj any
}

// Slug converts an artifact ID to its golden filename stem:
// "Fig. 2" → "fig02", "Table 10" → "table10", "Ext. A" → "exta".
func Slug(id string) string {
	s := strings.ToLower(id)
	s = strings.ReplaceAll(s, ".", "")
	fields := strings.Fields(s)
	for i, f := range fields {
		if len(f) == 1 && f >= "0" && f <= "9" {
			fields[i] = "0" + f
		}
	}
	return strings.Join(fields, "")
}

// GoldenPath returns the golden file for an artifact under dir.
func GoldenPath(dir, id string) string {
	return filepath.Join(dir, Slug(id)+".json")
}

// ArtifactReport is the verification outcome for one artifact.
type ArtifactReport struct {
	ID string `json:"id"`
	// Missing reports that no golden file exists for the artifact.
	Missing bool `json:"missing,omitempty"`
	// Diffs are golden-comparison divergences (empty when clean).
	Diffs []Diff `json:"diffs,omitempty"`
	// Violations are failed manifest assertions (empty when clean).
	Violations []Violation `json:"violations,omitempty"`
	// Err records a serialization or I/O failure for this artifact.
	Err string `json:"error,omitempty"`
}

// OK reports whether the artifact verified cleanly.
func (a ArtifactReport) OK() bool {
	return !a.Missing && a.Err == "" && len(a.Diffs) == 0 && len(a.Violations) == 0
}

// Report is the full verification outcome: the drift report bbrepro -verify
// prints and CI uploads.
type Report struct {
	Artifacts []ArtifactReport `json:"artifacts"`
}

// OK reports whether every artifact verified cleanly.
func (r *Report) OK() bool {
	for _, a := range r.Artifacts {
		if !a.OK() {
			return false
		}
	}
	return true
}

// Failed counts artifacts that did not verify cleanly.
func (r *Report) Failed() int {
	n := 0
	for _, a := range r.Artifacts {
		if !a.OK() {
			n++
		}
	}
	return n
}

// Render formats the per-artifact drift report for humans.
func (r *Report) Render() string {
	var b strings.Builder
	for _, a := range r.Artifacts {
		switch {
		case a.OK():
			fmt.Fprintf(&b, "ok   %s\n", a.ID)
		case a.Err != "":
			fmt.Fprintf(&b, "FAIL %s: %s\n", a.ID, a.Err)
		case a.Missing:
			fmt.Fprintf(&b, "FAIL %s: no golden file (run with -update to create it)\n", a.ID)
		default:
			fmt.Fprintf(&b, "FAIL %s: %d field drift(s), %d assertion violation(s)\n",
				a.ID, len(a.Diffs), len(a.Violations))
			for _, d := range a.Diffs {
				fmt.Fprintf(&b, "       golden %s\n", d)
			}
			for _, v := range a.Violations {
				fmt.Fprintf(&b, "       assert %s\n", v)
			}
		}
	}
	return b.String()
}

// JSON renders the machine-readable drift report (the CI artifact).
func (r *Report) JSON() []byte {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil { // plain structs; cannot happen
		panic(err)
	}
	return append(out, '\n')
}

// Verify checks every artifact against its golden file under dir and the
// manifest's assertions (manifest may be nil to skip assertions). The
// returned error covers harness problems only; drift is reported through
// the Report.
func Verify(arts []Artifact, dir string, m *Manifest) (*Report, error) {
	r := &Report{}
	for _, art := range arts {
		ar := ArtifactReport{ID: art.ID}
		got, err := ToValue(art.Obj)
		if err != nil {
			ar.Err = err.Error()
			r.Artifacts = append(r.Artifacts, ar)
			continue
		}
		data, err := os.ReadFile(GoldenPath(dir, art.ID))
		switch {
		case os.IsNotExist(err):
			ar.Missing = true
		case err != nil:
			ar.Err = err.Error()
		default:
			want, perr := Parse(data)
			if perr != nil {
				ar.Err = fmt.Sprintf("golden file: %v", perr)
				break
			}
			var tols []Tolerance
			if m != nil {
				tols = m.Tolerances
			}
			ar.Diffs = Compare(want, got, art.ID, tols)
		}
		if m != nil && ar.Err == "" {
			ar.Violations = EvalChecks(got, m.Checks(art.ID), false)
		}
		r.Artifacts = append(r.Artifacts, ar)
	}
	return r, nil
}

// Update regenerates the golden files for every artifact under dir,
// creating the directory as needed.
func Update(arts []Artifact, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, art := range arts {
		data, err := Marshal(art.Obj)
		if err != nil {
			return fmt.Errorf("golden: %s: %w", art.ID, err)
		}
		if err := fsx.WriteFileAtomic(GoldenPath(dir, art.ID), data, 0o644); err != nil {
			return fmt.Errorf("golden: %s: %w", art.ID, err)
		}
	}
	return nil
}
