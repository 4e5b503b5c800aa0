// Package bench is the perf-trajectory harness behind cmd/bbbench: a
// canonical set of benchmark specs covering the load-bearing paths of the
// reproduction (world build, matcher, experiment fan-out, dataset
// streaming, both netsim substrates), measured with testing.Benchmark and
// recorded as a versioned JSON trajectory that later commits compare
// against. DESIGN.md documents the schema and the baseline/tolerance
// contract.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// Schema identifies the trajectory file format. Bump only for
// incompatible changes; readers reject files with a different schema
// rather than misinterpret them.
const Schema = "bbbench/1"

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// MBPerS is throughput for specs that declare a byte volume
	// (the streaming benches); zero elsewhere.
	MBPerS float64 `json:"mb_per_s,omitempty"`
}

// Trajectory is one recorded benchmark run: the measurements plus enough
// host metadata to judge whether two trajectories are comparable at all
// (ns/op across different CPUs is not a regression signal).
type Trajectory struct {
	Schema     string   `json:"schema"`
	Go         string   `json:"go"`
	OS         string   `json:"os"`
	Arch       string   `json:"arch"`
	CPUs       int      `json:"cpus"`
	Created    string   `json:"created"` // RFC 3339
	Benchmarks []Result `json:"benchmarks"`
}

// NewTrajectory returns an empty trajectory stamped with the current
// host's metadata and the given creation time.
func NewTrajectory(created time.Time) *Trajectory {
	return &Trajectory{
		Schema:  Schema,
		Go:      runtime.Version(),
		OS:      runtime.GOOS,
		Arch:    runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Created: created.UTC().Format(time.RFC3339),
	}
}

// Write serializes the trajectory as indented JSON.
func (t *Trajectory) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// WriteNew writes the trajectory to a new file at path. It refuses to
// replace an existing file (the error wraps fs.ErrExist): committed
// trajectories are history. A failed write removes the partial file.
func (t *Trajectory) WriteNew(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	err = t.Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// ReadTrajectory parses a trajectory and validates its schema.
func ReadTrajectory(r io.Reader) (*Trajectory, error) {
	var t Trajectory
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("bench: parsing trajectory: %w", err)
	}
	if t.Schema != Schema {
		return nil, fmt.Errorf("bench: trajectory schema %q, want %q", t.Schema, Schema)
	}
	return &t, nil
}

// Delta compares one benchmark between a current run and a baseline.
type Delta struct {
	Name   string
	BaseNs float64
	CurNs  float64
	Ratio  float64 // CurNs / BaseNs
	// Regressed is true when the current ns/op exceeds the baseline by
	// more than the tolerance: cur > base × (1 + tolerance).
	Regressed bool
	// Alloc fields track allocs/op for specs under the allocation gate
	// (Spec.GateAllocs). AllocGated marks the spec as gated;
	// AllocRegressed fails the run under the same relative-tolerance rule
	// as ns/op.
	BaseAllocs     int64
	CurAllocs      int64
	AllocRatio     float64 // CurAllocs / BaseAllocs
	AllocGated     bool
	AllocRegressed bool
}

// CompareGated matches the current trajectory against a baseline at the
// given relative tolerance (0.20 = 20% slower fails). It returns a delta
// per benchmark present in both, sorted by name, plus the names of
// baseline benchmarks missing from the current run (renamed or dropped
// specs — reported so a silent rename cannot hide a regression).
// Benchmarks new in the current run have no baseline and are not compared.
// For each benchmark whose name is in allocGate, allocs/op is held to the
// same relative tolerance as ns/op; alloc counts on ungated specs are
// reported in the deltas but never fail the comparison.
func CompareGated(cur, base *Trajectory, tolerance float64, allocGate map[string]bool) (deltas []Delta, missing []string, err error) {
	if tolerance < 0 {
		return nil, nil, fmt.Errorf("bench: tolerance must be non-negative, got %v", tolerance)
	}
	curByName := make(map[string]Result, len(cur.Benchmarks))
	for _, r := range cur.Benchmarks {
		curByName[r.Name] = r
	}
	for _, b := range base.Benchmarks {
		c, ok := curByName[b.Name]
		if !ok {
			missing = append(missing, b.Name)
			continue
		}
		d := Delta{
			Name: b.Name, BaseNs: b.NsPerOp, CurNs: c.NsPerOp,
			BaseAllocs: b.AllocsPerOp, CurAllocs: c.AllocsPerOp,
			AllocGated: allocGate[b.Name],
		}
		if b.NsPerOp > 0 {
			d.Ratio = c.NsPerOp / b.NsPerOp
			d.Regressed = c.NsPerOp > b.NsPerOp*(1+tolerance)
		}
		if b.AllocsPerOp > 0 {
			d.AllocRatio = float64(c.AllocsPerOp) / float64(b.AllocsPerOp)
			if d.AllocGated {
				d.AllocRegressed = float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tolerance)
			}
		}
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	sort.Strings(missing)
	return deltas, missing, nil
}

// MissingUnknown filters CompareGated's missing list down to the names no spec
// in the universe defines: baseline entries that no run could ever
// reproduce again (a renamed or deleted spec), as opposed to entries
// merely outside this run's selected set (a smoke run against a full-set
// baseline). The distinction is what lets bbbench fail loudly on the
// former — a silent rename would otherwise retire a benchmark's history
// without anyone deciding to — while only warning about the latter.
func MissingUnknown(missing []string, universe []Spec) []string {
	known := make(map[string]bool, len(universe))
	for _, s := range universe {
		known[s.Name] = true
	}
	var out []string
	for _, name := range missing {
		if !known[name] {
			out = append(out, name)
		}
	}
	return out
}

// Regressions filters a delta set to the failures — a ns/op regression
// or a gated allocs/op regression.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regressed || d.AllocRegressed {
			out = append(out, d)
		}
	}
	return out
}
