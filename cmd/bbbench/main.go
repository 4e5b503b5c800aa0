// Command bbbench records the repository's performance trajectory: it runs
// the canonical benchmark set (internal/bench) and writes a BENCH_<n>.json
// file — ns/op, allocs/op, B/op and MB/s per benchmark plus host metadata —
// that later commits compare against with -baseline.
//
// Usage:
//
//	bbbench                               # full set → the next free BENCH_<n>.json
//	bbbench -set smoke -benchtime 100ms   # reduced CI set, shorter runs
//	bbbench -baseline BENCH_7.json        # also gate: exit 1 on >20% regression
//	bbbench -baseline auto                # gate against the newest BENCH_<n>.json
//	bbbench -baseline BENCH_7.json -tolerance 0.35
//	bbbench -list                         # enumerate specs and exit
//
// bbbench never overwrites a file: -out defaults to the index after the
// newest BENCH_<n>.json, and an existing -out is refused before the run.
//
// -baseline auto picks the committed BENCH_<n>.json with the highest index,
// compared numerically (BENCH_10 beats BENCH_6 — a lexical sort would get
// that backwards), and is resolved before the run writes -out, so a run can
// never gate against its own output. With no baseline present, auto
// records without gating.
//
// A regression is ns/op exceeding the baseline by more than the tolerance:
// cur > base × (1 + tolerance). Specs marked GateAllocs additionally hold
// allocs/op to the same rule — allocation counts on the gated hot paths
// (world build, experiment fan-out) are deterministic enough to gate on.
// Host metadata is recorded so trajectories from different machines are
// not mistaken for comparable.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"github.com/nwca/broadband/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status rather than
// exiting, so deferred cleanup runs on every path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// Register the testing flags (-test.benchtime et al.) so bbbench can
	// forward its -benchtime to testing.Benchmark; they stay settable from
	// the command line too.
	testing.Init()
	flag.CommandLine.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bbbench: %v\n", err)
		return 2
	}
	var (
		out       = fs.String("out", "", "trajectory file to write; never overwritten (default: the next free BENCH_<n>.json)")
		set       = fs.String("set", "full", "benchmark set: full or smoke")
		benchtime = fs.String("benchtime", "1s", "per-benchmark target time (or Nx iteration count)")
		baseline  = fs.String("baseline", "", "prior trajectory to compare against (or \"auto\" for the newest BENCH_<n>.json); regressions exit nonzero")
		tolerance = fs.Float64("tolerance", 0.20, "allowed relative slowdown vs -baseline (0.20 = 20%)")
		only      = fs.String("only", "", "run a single spec by name")
		list      = fs.Bool("list", false, "list specs and exit")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	specs, err := bench.Select(*set)
	if err != nil {
		return fail(err)
	}
	if *list {
		for _, s := range specs {
			tag := ""
			if s.Smoke {
				tag = "  (smoke)"
			}
			fmt.Fprintf(stdout, "%-22s%s\n", s.Name, tag)
		}
		return 0
	}
	if *only != "" {
		found := false
		for _, s := range specs {
			if s.Name == *only {
				specs = []bench.Spec{s}
				found = true
				break
			}
		}
		if !found {
			return fail(fmt.Errorf("no spec named %q in set %q", *only, *set))
		}
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return fail(fmt.Errorf("bad -benchtime: %w", err))
	}
	// Resolve the baseline before anything is written: -out may itself be a
	// BENCH_<n>.json, and "auto" must never pick the file this run creates.
	baselinePath := *baseline
	if baselinePath == "auto" {
		var err error
		baselinePath, err = bench.LatestBaseline(".")
		if err != nil {
			return fail(err)
		}
		if baselinePath == "" {
			fmt.Fprintln(stderr, "bbbench: no BENCH_<n>.json baseline found; recording without gating")
		} else {
			fmt.Fprintf(stderr, "bbbench: gating against %s\n", baselinePath)
		}
	}

	if *out == "" {
		if *out, err = bench.NextBaseline("."); err != nil {
			return fail(err)
		}
	}
	if _, err := os.Stat(*out); err == nil {
		return fail(fmt.Errorf("%s already exists; pick another -out", *out))
	}

	traj := bench.NewTrajectory(time.Now())
	for _, s := range specs {
		fmt.Fprintf(stderr, "bbbench: %s...\n", s.Name)
		r, err := bench.Measure(s)
		if err != nil {
			return fail(err)
		}
		line := fmt.Sprintf("%-22s %10d iters %14.1f ns/op %9d allocs/op %12d B/op",
			r.Name, r.Iters, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		if r.MBPerS > 0 {
			line += fmt.Sprintf(" %10.1f MB/s", r.MBPerS)
		}
		fmt.Fprintln(stdout, line)
		traj.Benchmarks = append(traj.Benchmarks, r)
	}

	if err := traj.WriteNew(*out); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "bbbench: wrote %s (%d benchmarks)\n", *out, len(traj.Benchmarks))

	if baselinePath == "" {
		return 0
	}
	bf, err := os.Open(baselinePath)
	if err != nil {
		return fail(err)
	}
	base, err := bench.ReadTrajectory(bf)
	bf.Close()
	if err != nil {
		return fail(err)
	}
	if base.OS != traj.OS || base.Arch != traj.Arch {
		fmt.Fprintf(stderr, "bbbench: warning: baseline host %s/%s differs from this host %s/%s; ns/op comparison is unreliable\n",
			base.OS, base.Arch, traj.OS, traj.Arch)
	}
	deltas, missing, err := bench.CompareGated(traj, base, *tolerance, bench.AllocGate(specs))
	if err != nil {
		return fail(err)
	}
	// A baseline entry missing from the current run is a warning when some
	// other set still defines the spec (a smoke run against a full-set
	// baseline), and a failure when no spec anywhere does — a renamed or
	// deleted spec must retire its baseline entry explicitly, not silently.
	universe, err := bench.Select("full")
	if err != nil {
		return fail(err)
	}
	unknown := make(map[string]bool)
	for _, name := range bench.MissingUnknown(missing, universe) {
		unknown[name] = true
	}
	for _, name := range missing {
		if unknown[name] {
			fmt.Fprintf(stderr, "bbbench: baseline benchmark %q matches no current spec (renamed or dropped?)\n", name)
		} else {
			fmt.Fprintf(stderr, "bbbench: warning: baseline benchmark %q not in this run (still defined in the full set)\n", name)
		}
	}
	for _, d := range deltas {
		verdict := "ok"
		if d.Regressed {
			verdict = "REGRESSED"
		}
		line := fmt.Sprintf("%-22s %14.1f -> %14.1f ns/op  (%.2fx)  %s",
			d.Name, d.BaseNs, d.CurNs, d.Ratio, verdict)
		if d.AllocGated {
			allocVerdict := "ok"
			if d.AllocRegressed {
				allocVerdict = "REGRESSED"
			}
			line += fmt.Sprintf("  | %d -> %d allocs/op (%.2fx) %s",
				d.BaseAllocs, d.CurAllocs, d.AllocRatio, allocVerdict)
		}
		fmt.Fprintln(stdout, line)
	}
	failed := false
	if reg := bench.Regressions(deltas); len(reg) > 0 {
		fmt.Fprintf(stderr, "bbbench: %d of %d benchmarks regressed beyond %.0f%% of %s\n",
			len(reg), len(deltas), *tolerance*100, baselinePath)
		failed = true
	}
	if len(unknown) > 0 {
		fmt.Fprintf(stderr, "bbbench: %d baseline benchmark(s) match no current spec; rename them in %s or record a new baseline\n",
			len(unknown), baselinePath)
		failed = true
	}
	if failed {
		return 1
	}
	fmt.Fprintf(stderr, "bbbench: no regressions vs %s (tolerance %.0f%%)\n", baselinePath, *tolerance*100)
	return 0
}
