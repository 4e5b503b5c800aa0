package golden

import (
	"fmt"
	"math"
	"path"
	"strconv"
)

// Tolerance relaxes the comparison at every tree location matching Path.
// Paths are slash-joined field names and array indices ("Panels/2/R");
// globbing follows path.Match, so "*" spans one segment and never crosses
// a slash ("Dasu/*/Result/Binomial/P" matches every row's p-value).
type Tolerance struct {
	// Artifact restricts the rule to one artifact ID ("" = every artifact).
	Artifact string `json:"artifact,omitempty"`
	Path     string `json:"path"`
	// Abs and Rel accept |want-got| <= Abs or <= Rel*max(|want|,|got|);
	// either bound passing is enough.
	Abs float64 `json:"abs,omitempty"`
	Rel float64 `json:"rel,omitempty"`
}

// Diff is one divergence between a golden tree and a regenerated one.
type Diff struct {
	Path string `json:"path"`
	Want string `json:"want"`
	Got  string `json:"got"`
	Msg  string `json:"msg,omitempty"`
}

func (d Diff) String() string {
	if d.Msg != "" {
		return fmt.Sprintf("%s: %s (want %s, got %s)", d.Path, d.Msg, d.Want, d.Got)
	}
	return fmt.Sprintf("%s: want %s, got %s", d.Path, d.Want, d.Got)
}

// Compare diffs a regenerated tree against the golden one, returning every
// divergence (nil means the trees match under the tolerances). The walk is
// structural: missing/extra object fields and array-length changes are
// diffs, numbers compare under the per-path tolerances, and non-finite
// markers ("NaN", "+Inf", "-Inf") compare by identity. artifact scopes the
// Artifact-qualified rules of tols. A numeric field no rule matches must
// be exactly equal, which deterministic regeneration on one platform
// provides; cross-platform drift is what per-field rules are for.
func Compare(want, got *Value, artifact string, tols []Tolerance) []Diff {
	c := &comparer{artifact: artifact, tols: tols}
	c.compare("", want, got)
	return c.diffs
}

type comparer struct {
	artifact string
	tols     []Tolerance
	diffs    []Diff
}

func (c *comparer) add(p string, want, got *Value, msg string) {
	c.diffs = append(c.diffs, Diff{Path: p, Want: want.Render(), Got: got.Render(), Msg: msg})
}

// tolAt resolves the tolerance rule for a path. The last matching rule
// wins, so manifests can layer a broad rule and then a narrower override.
func (c *comparer) tolAt(p string) (abs, rel float64) {
	for _, t := range c.tols {
		if t.Artifact != "" && t.Artifact != c.artifact {
			continue
		}
		if ok, err := path.Match(t.Path, p); err == nil && ok {
			abs, rel = t.Abs, t.Rel
		}
	}
	return abs, rel
}

func (c *comparer) compare(p string, want, got *Value) {
	if want == nil || got == nil {
		if want != got {
			c.add(p, want, got, "missing value")
		}
		return
	}
	if want.Kind != got.Kind {
		c.add(p, want, got, fmt.Sprintf("kind changed (%s → %s)", want.Kind, got.Kind))
		return
	}
	switch want.Kind {
	case KindNull:
	case KindBool:
		if want.Bool != got.Bool {
			c.add(p, want, got, "")
		}
	case KindStr:
		if want.Str != got.Str {
			c.add(p, want, got, "")
		}
	case KindNum:
		abs, rel := c.tolAt(p)
		if !numEqual(want.Num, got.Num, abs, rel) {
			c.add(p, want, got, fmt.Sprintf("drift %s", formatDrift(want.Num, got.Num)))
		}
	case KindArr:
		n := len(want.Arr)
		if len(got.Arr) != n {
			c.add(p, want, got, fmt.Sprintf("length changed (%d → %d)", n, len(got.Arr)))
			if len(got.Arr) < n {
				n = len(got.Arr)
			}
		}
		for i := 0; i < n; i++ {
			c.compare(childPath(p, strconv.Itoa(i)), want.Arr[i], got.Arr[i])
		}
	case KindObj:
		for _, k := range want.Keys {
			gv, ok := got.Fields[k]
			if !ok {
				c.add(childPath(p, k), want.Fields[k], nil, "field removed")
				continue
			}
			c.compare(childPath(p, k), want.Fields[k], gv)
		}
		for _, k := range got.Keys {
			if _, ok := want.Fields[k]; !ok {
				c.add(childPath(p, k), nil, got.Fields[k], "field added")
			}
		}
	}
}

// numEqual applies the absolute-or-relative acceptance rule.
func numEqual(a, b, abs, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if d <= abs {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*scale
}

func formatDrift(want, got float64) string {
	d := got - want
	if want != 0 {
		return fmt.Sprintf("%+g (%+.3g%%)", d, 100*d/want)
	}
	return fmt.Sprintf("%+g", d)
}
