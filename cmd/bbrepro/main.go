// Command bbrepro regenerates every table and figure of the paper against a
// freshly generated synthetic world and prints the reproductions. With
// -verify it is also the golden regression gate: every registry artifact
// is diffed against the checked-in goldens under testdata/golden/ and the
// assertion manifest that encodes EXPERIMENTS.md's shape scorecard.
//
// Usage:
//
//	bbrepro                       # run everything at the canonical world
//	bbrepro -only "Table 2"       # one artifact
//	bbrepro -users 8000 -seed 7   # bigger world, different seed
//	bbrepro -list                 # enumerate artifacts
//	bbrepro -verify -report drift.json   # gate, plus the machine-readable drift report
//
// Goldens are rewritten through the test suite, not this command:
//
//	go test -run TestGoldenArtifacts -update .
//
// Exit status: 0 on success; 1 when an artifact fails or, with -verify,
// when an artifact drifts or violates an assertion (every failure is
// listed on stderr); 2 when the harness itself fails (a manifest or golden
// read error, a report write error); 130 on interrupt.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/cli"
	"github.com/nwca/broadband/internal/experiments"
	"github.com/nwca/broadband/internal/fsx"
	"github.com/nwca/broadband/internal/golden"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status rather than
// exiting, so deferred cleanup runs on every path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Uint64("seed", cli.CanonicalWorld.Seed, "world seed")
		worldCfg = cli.WorldFlags(fs, cli.CanonicalWorld)
		only     = fs.String("only", "", "run a single artifact, e.g. \"Table 2\" or \"Fig. 6\"")
		list     = fs.Bool("list", false, "list artifacts and exit")
		dataDir  = fs.String("data", "", "analyze a dataset directory written by bbgen instead of generating a world")
		ext      = fs.Bool("ext", false, "also run the extension analyses (beyond the paper's artifacts)")
		verify   = fs.Bool("verify", false, "after printing, check artifacts against -golden and -manifest; exit 1 on drift")
		golDir   = fs.String("golden", "testdata/golden", "golden directory for -verify")
		manifest = fs.String("manifest", "testdata/assertions.json", "assertion manifest for -verify (empty to skip assertions)")
		report   = fs.String("report", "", "with -verify, also write the JSON drift report to this file")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if *report != "" && !*verify {
		return cli.ExitCode(stderr, "bbrepro", errors.New("-report needs -verify"), 2)
	}
	cfg := worldCfg()
	cfg.Seed = *seed

	if *list {
		for _, e := range broadband.Experiments() {
			fmt.Fprintf(stdout, "%-9s %s\n", e.ID, e.Title)
		}
		for _, e := range broadband.ExtensionExperiments() {
			fmt.Fprintf(stdout, "%-9s %s\n", e.ID, e.Title)
		}
		return 0
	}

	// Ctrl-C / SIGTERM cancels generation and the experiment fan-out.
	ctx, stop := cli.Context()
	defer stop()

	start := time.Now()
	var data *broadband.Dataset
	if *dataDir != "" {
		fmt.Fprintf(stderr, "bbrepro: loading dataset from %s...\n", *dataDir)
		loaded, err := broadband.LoadDataset(*dataDir)
		if err != nil {
			return cli.ExitCode(stderr, "bbrepro", err, 1)
		}
		data = loaded
	} else {
		fmt.Fprintf(stderr, "bbrepro: generating world (seed=%d, users=%d)...\n", cfg.Seed, cfg.Users)
		world, err := broadband.BuildWorldCtx(ctx, cfg)
		if err != nil {
			return cli.ExitCode(stderr, "bbrepro", err, 1)
		}
		if n := world.SkippedHouseholds(); n > 0 {
			fmt.Fprintf(stderr, "bbrepro: %d households skipped (no affordable plan after every redraw)\n", n)
		}
		data = &world.Data
	}
	fmt.Fprintf(stderr, "bbrepro: dataset ready in %v (%d users, %d switches, %d plans)\n\n",
		time.Since(start).Round(time.Millisecond),
		len(data.Users), len(data.Switches), len(data.Plans))

	if *only != "" {
		rep, err := broadband.Run(*only, data, cfg.Seed)
		if err != nil {
			fmt.Fprintf(stderr, "bbrepro: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, rep.Render())
		return 0
	}
	entries := broadband.Experiments()
	if *ext {
		entries = append(entries, broadband.ExtensionExperiments()...)
	}
	// The registry fan-out returns results in registry order whatever the
	// interleaving. Every failure is reported (not just the first) and any
	// failure makes the run exit non-zero. An experiment error does not stop
	// the others — only cancellation stops dispatch.
	reports, errs, _ := experiments.RunEach(ctx, entries, func(e broadband.ReportEntry) (broadband.Report, error) {
		return experiments.RunAt(e, data, cfg.Seed)
	})
	if err := ctx.Err(); err != nil {
		return cli.ExitCode(stderr, "bbrepro", err, 1)
	}
	failed := 0
	for i, e := range entries {
		if errs[i] != nil {
			fmt.Fprintf(stderr, "bbrepro: %s: %v\n", e.ID, errs[i])
			failed++
			continue
		}
		fmt.Fprintln(stdout, reports[i].Render())
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "bbrepro: %d of %d artifacts failed\n", failed, len(entries))
		return 1
	}
	if !*verify {
		return 0
	}
	// Only the paper's registry artifacts carry goldens; with -ext the
	// extension reports print above but are not gated.
	arts := make([]golden.Artifact, 0, len(entries))
	for i, e := range entries {
		if _, ok := broadband.FindExperiment(e.ID); ok {
			arts = append(arts, golden.Artifact{ID: e.ID, Obj: reports[i]})
		}
	}
	var m *golden.Manifest
	if *manifest != "" {
		loaded, err := golden.LoadManifest(*manifest)
		if err != nil {
			return cli.ExitCode(stderr, "bbrepro", err, 2)
		}
		m = loaded
	}
	r, err := golden.Verify(arts, *golDir, m)
	if err != nil {
		return cli.ExitCode(stderr, "bbrepro", err, 2)
	}
	fmt.Fprint(stderr, r.Render())
	if *report != "" {
		if err := fsx.RetryWrite(context.Background(), *report, r.JSON(), 0o644); err != nil {
			return cli.ExitCode(stderr, "bbrepro", err, 2)
		}
	}
	if !r.OK() {
		fmt.Fprintf(stderr, "bbrepro: verify: %d of %d artifacts drifted or violated assertions\n", r.Failed(), len(r.Artifacts))
		return 1
	}
	fmt.Fprintf(stderr, "bbrepro: verify: all %d artifacts match the goldens\n", len(r.Artifacts))
	return 0
}
