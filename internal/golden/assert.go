package golden

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path"
	"strconv"

	"github.com/nwca/broadband/internal/stats"
)

// Manifest is the machine-readable encoding of EXPERIMENTS.md's shape
// scorecard plus the comparator's per-field tolerance rules. It lives in
// testdata/assertions.json and is the single source of truth for both
// bbrepro -verify and the metamorphic test suite.
type Manifest struct {
	// Tolerances relax the golden comparison at matching paths.
	Tolerances []Tolerance `json:"tolerances,omitempty"`
	// Artifacts lists the qualitative checks per registry artifact.
	Artifacts []ArtifactAssertions `json:"artifacts"`
}

// ArtifactAssertions is the check set for one registry artifact.
type ArtifactAssertions struct {
	ID     string  `json:"id"`
	Checks []Check `json:"checks"`
}

// Check is one qualitative assertion on an artifact's canonical tree. The
// selected values are the numbers at every tree location matching Path (or
// the Paths list, concatenated in list order — the way to compare fields
// whose relative order in the struct does not match the wanted ordering).
type Check struct {
	// Name labels the check in drift reports.
	Name string `json:"name"`
	// Path selects values by slash-glob; Paths concatenates several
	// selections in order. Exactly one of the two must be set.
	Path  string   `json:"path,omitempty"`
	Paths []string `json:"paths,omitempty"`
	// Op is the assertion: "range" (every value within [min, max]),
	// "sign" (every value has the given sign), "nondecreasing" /
	// "nonincreasing" (the selected sequence is monotone within tol), or
	// "peak_first" (no later value exceeds the first by more than tol).
	//
	// Three further ops are differential — they compare the selection
	// against the same selection in a baseline tree and are evaluated by
	// EvalDiffCheck (the scenario runner's path), never by EvalChecks:
	// "increases" / "decreases" (the aggregated selection moves in the
	// given direction by more than the tolerance band) and "unchanged"
	// (it stays inside the band; with no tolerances set, bit-exactly).
	Op string `json:"op"`
	// Min and Max bound "range" (either may be omitted).
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// Sign is the wanted sign for "sign": -1, 0 or 1.
	Sign int `json:"sign,omitempty"`
	// Tol is the absolute slack for the monotone ops.
	Tol float64 `json:"tol,omitempty"`
	// MinCount fails the check when fewer values are selected (default 1
	// — a check that selects nothing is a stale path or a skipped row, not
	// a pass).
	MinCount int `json:"min_count,omitempty"`
	// ScaleInvariant marks checks that must hold for any reasonable world
	// size and seed, not just the default reproduction config. The
	// metamorphic suite evaluates exactly these.
	ScaleInvariant bool `json:"scale_invariant,omitempty"`

	// The fields below parameterize the differential ops only.

	// Agg reduces the selection to the scalar that is compared across the
	// two trees: "mean" (the default), "median", "sum", "min", "max" or
	// "count" (selection size; how a check asserts on populations).
	Agg string `json:"agg,omitempty"`
	// AbsTol and RelTol define the indifference band around the baseline
	// aggregate b: tol = abs_tol + rel_tol·|b|. "unchanged" passes inside
	// the band; "increases"/"decreases" require the move to clear it.
	AbsTol float64 `json:"abs_tol,omitempty"`
	RelTol float64 `json:"rel_tol,omitempty"`
	// MinRel / MaxRel bound the relative move |s−b|/|b| of a passing
	// "increases"/"decreases" from below/above (zero = unset) — the way a
	// check demands a material shift, or asserts sublinearity by capping
	// one quantity's move below another check's floor.
	MinRel float64 `json:"min_rel,omitempty"`
	MaxRel float64 `json:"max_rel,omitempty"`
}

// Differential reports whether the op compares against a baseline tree
// (EvalDiffCheck) rather than asserting on a single tree (EvalChecks).
func (c Check) Differential() bool {
	switch c.Op {
	case "increases", "decreases", "unchanged":
		return true
	}
	return false
}

// Validate reports whether the check is well-formed. Scenario packs load
// checks outside a Manifest and validate them through this.
func (c Check) Validate() error { return c.validate() }

// LoadManifest reads and validates an assertion manifest.
func LoadManifest(file string) (*Manifest, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	return ParseManifest(data)
}

// ParseManifest decodes and validates a manifest document.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("golden: manifest: %w", err)
	}
	for _, a := range m.Artifacts {
		if a.ID == "" {
			return nil, fmt.Errorf("golden: manifest artifact with empty id")
		}
		for _, c := range a.Checks {
			if err := c.validate(); err != nil {
				return nil, fmt.Errorf("golden: manifest %s, check %q: %w", a.ID, c.Name, err)
			}
		}
	}
	return &m, nil
}

func (c Check) validate() error {
	if (c.Path == "") == (len(c.Paths) == 0) {
		return fmt.Errorf("exactly one of path/paths must be set")
	}
	switch c.Op {
	case "range":
		if c.Min == nil && c.Max == nil {
			return fmt.Errorf("range needs min and/or max")
		}
	case "sign":
		if c.Sign < -1 || c.Sign > 1 {
			return fmt.Errorf("sign must be -1, 0 or 1")
		}
	case "nondecreasing", "nonincreasing", "peak_first":
	case "increases", "decreases", "unchanged":
		switch c.Agg {
		case "", "mean", "median", "sum", "min", "max", "count":
		default:
			return fmt.Errorf("unknown agg %q", c.Agg)
		}
		if c.AbsTol < 0 || c.RelTol < 0 || c.MinRel < 0 || c.MaxRel < 0 {
			return fmt.Errorf("differential tolerances must be non-negative")
		}
		if c.Op == "unchanged" && (c.MinRel != 0 || c.MaxRel != 0) {
			return fmt.Errorf("min_rel/max_rel apply to increases/decreases only")
		}
		if c.MinRel != 0 && c.MaxRel != 0 && c.MinRel > c.MaxRel {
			return fmt.Errorf("min_rel %g exceeds max_rel %g", c.MinRel, c.MaxRel)
		}
	default:
		return fmt.Errorf("unknown op %q", c.Op)
	}
	if c.Agg != "" && !c.Differential() {
		return fmt.Errorf("agg applies to differential ops only")
	}
	return nil
}

// Checks returns the assertions registered for an artifact ID.
func (m *Manifest) Checks(id string) []Check {
	for _, a := range m.Artifacts {
		if a.ID == id {
			return a.Checks
		}
	}
	return nil
}

// Violation is one failed assertion.
type Violation struct {
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

func (v Violation) String() string { return fmt.Sprintf("%s: %s", v.Check, v.Msg) }

// EvalChecks evaluates assertions against an artifact tree. When
// scaleInvariantOnly is set, only checks marked scale_invariant run — the
// metamorphic suite's view of the manifest.
func EvalChecks(v *Value, checks []Check, scaleInvariantOnly bool) []Violation {
	var out []Violation
	for _, c := range checks {
		if scaleInvariantOnly && !c.ScaleInvariant {
			continue
		}
		if msg := evalCheck(v, c); msg != "" {
			out = append(out, Violation{Check: c.Name, Msg: msg})
		}
	}
	return out
}

// collect gathers the numeric selection of a check from one tree, in tree
// order. The returned message is non-empty when the selection is unusable
// (a non-numeric match, or fewer values than min_count).
func collect(v *Value, c Check) (vals []float64, paths []string, msg string) {
	globs := c.Paths
	if c.Path != "" {
		globs = []string{c.Path}
	}
	for _, g := range globs {
		sel := Select(v, g)
		for _, s := range sel {
			if s.V.Kind != KindNum {
				return nil, nil, fmt.Sprintf("%s is %s, not a number", s.Path, s.V.Render())
			}
			vals = append(vals, s.V.Num)
			paths = append(paths, s.Path)
		}
	}
	minCount := c.MinCount
	if minCount <= 0 {
		minCount = 1
	}
	if len(vals) < minCount {
		return nil, nil, fmt.Sprintf("selected %d values, need at least %d (globs %v)", len(vals), minCount, globs)
	}
	return vals, paths, ""
}

func evalCheck(v *Value, c Check) string {
	if c.Differential() {
		return fmt.Sprintf("op %q needs a baseline tree (EvalDiffCheck)", c.Op)
	}
	vals, paths, msg := collect(v, c)
	if msg != "" {
		return msg
	}
	switch c.Op {
	case "range":
		for i, x := range vals {
			if c.Min != nil && !(x >= *c.Min) {
				return fmt.Sprintf("%s = %g below min %g", paths[i], x, *c.Min)
			}
			if c.Max != nil && !(x <= *c.Max) {
				return fmt.Sprintf("%s = %g above max %g", paths[i], x, *c.Max)
			}
		}
	case "sign":
		for i, x := range vals {
			if stats.Sign(x) != c.Sign {
				return fmt.Sprintf("%s = %g has sign %+d, want %+d", paths[i], x, stats.Sign(x), c.Sign)
			}
		}
	case "nondecreasing":
		if !stats.NonDecreasing(vals, c.Tol) {
			return fmt.Sprintf("sequence %v is not non-decreasing (tol %g)", vals, c.Tol)
		}
	case "nonincreasing":
		if !stats.NonIncreasing(vals, c.Tol) {
			return fmt.Sprintf("sequence %v is not non-increasing (tol %g)", vals, c.Tol)
		}
	case "peak_first":
		if !stats.PeakFirst(vals, c.Tol) {
			return fmt.Sprintf("sequence %v does not peak at its first element (tol %g)", vals, c.Tol)
		}
	}
	return ""
}

// aggregate reduces a non-empty selection per the check's Agg field.
func aggregate(vals []float64, agg string) (float64, error) {
	switch agg {
	case "count":
		return float64(len(vals)), nil
	case "median":
		return stats.Median(vals)
	case "sum":
		s := 0.0
		for _, x := range vals {
			s += x
		}
		return s, nil
	case "min":
		m := vals[0]
		for _, x := range vals[1:] {
			if x < m {
				m = x
			}
		}
		return m, nil
	case "max":
		m := vals[0]
		for _, x := range vals[1:] {
			if x > m {
				m = x
			}
		}
		return m, nil
	case "", "mean":
		return stats.Mean(vals)
	}
	return 0, fmt.Errorf("unknown agg %q", agg)
}

// EvalDiffCheck evaluates one differential assertion: the check's selection
// is gathered from the baseline and scenario trees, reduced by Agg, and the
// two scalars compared per the op. The empty string means the check passed.
//
// With identical inputs the aggregates are bit-identical, so "unchanged"
// with no tolerances is an exact no-interference assertion — the sharpest
// statement a counterfactual can make about the cohorts it must not touch.
func EvalDiffCheck(base, got *Value, c Check) string {
	if !c.Differential() {
		return fmt.Sprintf("op %q is not differential (EvalChecks)", c.Op)
	}
	bVals, _, msg := collect(base, c)
	if msg != "" {
		return "baseline: " + msg
	}
	gVals, _, msg := collect(got, c)
	if msg != "" {
		return "scenario: " + msg
	}
	b, err := aggregate(bVals, c.Agg)
	if err != nil {
		return "baseline: " + err.Error()
	}
	s, err := aggregate(gVals, c.Agg)
	if err != nil {
		return "scenario: " + err.Error()
	}
	if math.IsNaN(b) || math.IsNaN(s) {
		return fmt.Sprintf("aggregate is NaN (baseline %g, scenario %g)", b, s)
	}
	agg := c.Agg
	if agg == "" {
		agg = "mean"
	}
	tol := c.AbsTol + c.RelTol*math.Abs(b)
	delta := s - b
	rel := math.Inf(1) // a move off a zero baseline counts as unboundedly large
	if b != 0 {
		rel = math.Abs(delta) / math.Abs(b)
	} else if delta == 0 {
		rel = 0
	}
	describe := func() string {
		return fmt.Sprintf("%s(%d values) %g -> %s(%d values) %g (delta %+g, tol %g)",
			agg, len(bVals), b, agg, len(gVals), s, delta, tol)
	}
	switch c.Op {
	case "unchanged":
		if math.Abs(delta) > tol {
			return "not unchanged: " + describe()
		}
	case "increases":
		if !(delta > tol) {
			return "does not increase: " + describe()
		}
	case "decreases":
		if !(-delta > tol) {
			return "does not decrease: " + describe()
		}
	}
	if c.Op != "unchanged" {
		if c.MinRel != 0 && rel < c.MinRel {
			return fmt.Sprintf("moves only %.3g×, below min_rel %g: %s", rel, c.MinRel, describe())
		}
		if c.MaxRel != 0 && rel > c.MaxRel {
			return fmt.Sprintf("moves %.3g×, above max_rel %g: %s", rel, c.MaxRel, describe())
		}
	}
	return ""
}

// Selected is one value picked out of a tree by a path glob.
type Selected struct {
	Path string
	V    *Value
}

// Select returns every tree location matching the slash-glob, in tree
// order (struct declaration order for objects, index order for arrays) —
// the order monotonicity checks evaluate in. It never descends into an
// object whose Skipped field is true: a row skipped for too few pairs
// holds no result, so a glob passes over it and a path naming it selects
// nothing, while a populated row's true 0 is still read.
func Select(v *Value, glob string) []Selected {
	var out []Selected
	selectWalk(v, "", glob, &out)
	return out
}

func selectWalk(v *Value, p, glob string, out *[]Selected) {
	if v == nil {
		return
	}
	if p != "" {
		if ok, err := path.Match(glob, p); err == nil && ok {
			*out = append(*out, Selected{Path: p, V: v})
			return
		}
	}
	switch v.Kind {
	case KindObj:
		if s := v.Field("Skipped"); s != nil && s.Kind == KindBool && s.Bool {
			return
		}
		for _, k := range v.Keys {
			selectWalk(v.Fields[k], childPath(p, k), glob, out)
		}
	case KindArr:
		for i, c := range v.Arr {
			selectWalk(c, childPath(p, strconv.Itoa(i)), glob, out)
		}
	}
}

func childPath(p, k string) string {
	if p == "" {
		return k
	}
	return p + "/" + k
}
