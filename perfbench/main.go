// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time from a workload seed, checks every output the
// program produces, and prints its metrics as one JSON line:
//
//	perfbench --workload pipeline|query|ingest --seed N --seconds S --trace 0|1
//
// With --trace 0 the line carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the same workload runs with spans recorded
// around every call the benchmark makes into a layer, and the line carries
// the per-layer metrics; the spans and the full layer report are written
// under .bench_build/trace/. README.md explains the workloads and metrics.
// run.sh builds this program and bbserve and runs it from the root of a
// checkout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics is a named metric set.
type Metrics map[string]Metric

// Set records a metric.
func (m Metrics) Set(name string, v float64, unit string) {
	m[name] = Metric{Value: v, Unit: unit}
}

// Run is everything a workload reports.
type Run struct {
	Attempted, Failed int
	E2E               Metrics // the end-to-end metrics of BENCHMARK.json
	Layers            Metrics // the per-layer metrics of BENCHMARK.json
	Extra             Metrics // further figures, on standard error and in the layer report
	Problems          []string
}

// Check counts one checked output, failing it when err is non-nil. The
// first 20 failures are kept for the report.
func (r *Run) Check(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Problems) < 20 {
			r.Problems = append(r.Problems, err.Error())
		}
	}
}

func newRun() *Run { return &Run{E2E: Metrics{}, Layers: Metrics{}, Extra: Metrics{}} }

// Env is what a workload needs from its surroundings.
type Env struct {
	Root    string        // checkout root
	Work    string        // private scratch directory, removed at exit
	Bin     string        // directory holding the bbserve binary
	Seed    uint64        // workload seed
	Seconds time.Duration // measured duration
	Tr      *Tracer       // nil unless --trace 1
}

// runLimit bounds a run after the build.
const runLimit = 170 * time.Second

var workloads = map[string]func(context.Context, *Env) (*Run, error){
	"pipeline": runPipeline,
	"query":    runQuery,
	"ingest":   runIngest,
}

func main() {
	workload := flag.String("workload", "", "pipeline, query or ingest")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds int, traced bool) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "testdata", "assertions.json")); err != nil {
		return fmt.Errorf("not the root of a checkout: %w", err)
	}
	build := filepath.Join(root, ".bench_build")
	work := filepath.Join(build, "work", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A run must end within 180 s; a hang fails it with a message instead.
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	env := &Env{Root: root, Work: work, Bin: filepath.Join(build, "bin"), Seed: seed, Seconds: time.Duration(seconds) * time.Second}
	if traced {
		env.Tr = NewTracer()
	}
	r, err := fn(ctx, env)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	names, want := spec.EndToEnd, r.E2E
	if traced {
		names, want = spec.PerLayer, r.Layers
		base := filepath.Join(build, "trace", fmt.Sprintf("%s-seed%d", workload, seed))
		if err := env.Tr.WriteFile(base + ".spans.json"); err != nil {
			return err
		}
		if err := writeLayerReport(base+".layers.json", r); err != nil {
			return err
		}
	}
	out := Metrics{}
	for _, n := range names {
		m, ok := want[n]
		if !ok {
			return fmt.Errorf("%s reported no %s", workload, n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: %s is %v", workload, n, m.Value)
		}
		out[n] = m
	}
	report(os.Stderr, workload, r)
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   Metrics `json:"metrics"`
	}{r.Failed == 0, max(r.Attempted, 1), r.Failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spec is the part of BENCHMARK.json the benchmark reads: which metrics
// each kind of run must print.
type spec struct {
	EndToEnd, PerLayer []string
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := &spec{}
	for _, m := range raw.EndToEnd {
		s.EndToEnd = append(s.EndToEnd, m.Name)
	}
	for _, m := range raw.PerLayer {
		s.PerLayer = append(s.PerLayer, m.Name)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New("BENCHMARK.json lists no metrics")
	}
	return s, nil
}

// report prints every metric of the run to w, sorted by name.
func report(w *os.File, workload string, r *Run) {
	all := Metrics{}
	for _, m := range []Metrics{r.E2E, r.Layers, r.Extra} {
		for k, v := range m {
			all[k] = v
		}
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench: %s: %d checked, %d failed\n", workload, r.Attempted, r.Failed)
	for _, k := range names {
		fmt.Fprintf(&b, "  %-34s %14.4f %s\n", k, all[k].Value, all[k].Unit)
	}
	w.WriteString(b.String())
}

func writeLayerReport(path string, r *Run) error {
	b, err := json.MarshalIndent(struct {
		Attempted int      `json:"attempted"`
		Failed    int      `json:"failed"`
		Problems  []string `json:"problems,omitempty"`
		Layers    Metrics  `json:"per_layer"`
		Extra     Metrics  `json:"workload_specific"`
	}{r.Attempted, r.Failed, r.Problems, r.Layers, r.Extra}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
