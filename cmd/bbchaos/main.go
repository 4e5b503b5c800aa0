// Command bbchaos is the chaos harness: it perturbs a dataset with the
// deterministic fault injector, loads the damaged files through the
// quarantine layer, reruns the full experiment registry, and checks the
// scorecard still satisfies the assertion manifest. It answers, end to end,
// "how much measurement damage can the reproduction absorb before its
// conclusions move?"
//
// Usage:
//
//	bbchaos                          # default world, 1% faults
//	bbchaos -rate 0.05 -chaos-seed 7 # heavier damage, replayable by seed
//	bbchaos -data data/ -rate 0.01  # perturb a copy of an existing dataset
//	bbchaos -report chaos.json      # machine-readable injection+drift report
//
// The source dataset is never modified: faults are injected into a
// throwaway copy (-keep preserves it for inspection). Exit status: 0 when
// the damaged dataset loads within the error budget and every artifact
// satisfies the manifest's scale-invariant checks, 1 when the budget trips
// or an assertion fails, 2 when the harness itself fails, 130 on interrupt.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/chaos"
	"github.com/nwca/broadband/internal/cli"
	"github.com/nwca/broadband/internal/fsx"
	"github.com/nwca/broadband/internal/golden"
)

// report is the machine-readable outcome written by -report.
type report struct {
	Seed       uint64                      `json:"seed"` // -chaos-seed
	Rate       float64                     `json:"rate"`
	Injected   *chaos.Log                  `json:"injected"`
	Quarantine *broadband.QuarantineReport `json:"quarantine,omitempty"`
	LoadError  string                      `json:"load_error,omitempty"`
	Violations map[string][]string         `json:"violations,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is the whole command; it returns the exit status rather than
// exiting, so the deferred removal of the throwaway work directory runs
// on every path.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		chaosSeed = fs.Uint64("chaos-seed", 1, "chaos seed (the fault pattern is a pure function of it)")
		rate      = fs.Float64("rate", 0.01, "per-row fault probability")
		truncate  = fs.Float64("truncate", 0, "per-table shard-truncation probability")
		corrupt   = fs.Float64("corrupt", 0, "per-table gzip-corruption probability (gzip datasets)")
		dataDir   = fs.String("data", "", "perturb a copy of this dataset directory instead of generating a world")
		seed      = fs.Uint64("seed", cli.CanonicalWorld.Seed, "world seed when generating; also the experiments' seed")
		worldCfg  = cli.WorldFlags(fs, broadband.WorldConfig{Users: 2000, FCCUsers: 500, Days: 2, SwitchTarget: 400, MinPerCountry: 10})
		badFrac   = fs.Float64("max-bad-frac", 0, "quarantine error budget as a bad-row fraction (0 = the default 5%)")
		manifest  = fs.String("manifest", "testdata/assertions.json", "assertion manifest (empty to skip the scorecard)")
		reportTo  = fs.String("report", "", "write the JSON injection+drift report to this file")
		keep      = fs.String("keep", "", "keep the perturbed dataset in this directory instead of a throwaway temp dir")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	cfg := worldCfg()
	cfg.Seed = *seed

	ctx, stop := cli.Context()
	defer stop()

	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "bbchaos: "+format+"\n", args...)
		return 2
	}

	// Stage the pristine dataset in the work directory; the injector only
	// ever touches the copy.
	workDir := *keep
	if workDir == "" {
		tmp, err := os.MkdirTemp("", "bbchaos-*")
		if err != nil {
			return fail("%v", err)
		}
		defer os.RemoveAll(tmp)
		workDir = tmp
	} else if err := os.MkdirAll(workDir, 0o755); err != nil {
		return fail("%v", err)
	}

	start := time.Now()
	if *dataDir != "" {
		if err := copyDataset(*dataDir, workDir); err != nil {
			return fail("%v", err)
		}
	} else {
		world, err := broadband.BuildWorldCtx(ctx, cfg)
		if err != nil {
			return cli.ExitCode(stderr, "bbchaos", err, 2)
		}
		if err := broadband.SaveDatasetCtx(ctx, &world.Data, workDir, broadband.SaveOptions{Workers: cfg.Workers}); err != nil {
			return cli.ExitCode(stderr, "bbchaos", err, 2)
		}
	}

	in := chaos.New(chaos.Config{
		Seed:         *chaosSeed,
		Rate:         *rate,
		TruncateProb: *truncate,
		CorruptProb:  *corrupt,
	})
	log, err := in.PerturbDir(workDir)
	if err != nil {
		return fail("injecting faults: %v", err)
	}
	fmt.Fprint(stderr, log.Render())

	rep := &report{Seed: *chaosSeed, Rate: *rate, Injected: log}
	finish := func(code int) int {
		if *reportTo != "" {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return fail("%v", err)
			}
			if err := fsx.RetryWrite(context.Background(), fsx.RetryPolicy{}, *reportTo, append(data, '\n'), 0o644); err != nil {
				return fail("%v", err)
			}
		}
		return code
	}

	d, qrep, err := broadband.LoadDatasetRobust(workDir, broadband.QuarantineOptions{MaxBadFrac: *badFrac})
	rep.Quarantine = qrep
	if qrep != nil {
		fmt.Fprint(stderr, qrep.Render())
	}
	if err != nil {
		if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
			return cli.ExitCode(stderr, "bbchaos", err, 2)
		}
		rep.LoadError = err.Error()
		fmt.Fprintf(stderr, "bbchaos: damaged dataset rejected: %v\n", err)
		return finish(1)
	}

	if err := ctx.Err(); err != nil {
		return cli.ExitCode(stderr, "bbchaos", err, 2)
	}
	reports, err := broadband.RunAllWorkersCtx(ctx, d, cfg.Seed, cfg.Workers)
	if err != nil {
		return cli.ExitCode(stderr, "bbchaos", err, 2)
	}

	violations := map[string][]string{}
	if *manifest != "" {
		m, err := golden.LoadManifest(*manifest)
		if err != nil {
			return fail("%v", err)
		}
		for i, e := range broadband.Experiments() {
			v, err := golden.ToValue(reports[i])
			if err != nil {
				return fail("%s: %v", e.ID, err)
			}
			// Only the scale-invariant subset is meaningful here: quarantined
			// rows shrink the population, so exact-value checks are expected
			// to move while signs and orderings must not.
			for _, viol := range golden.EvalChecks(v, m.Checks(e.ID), true) {
				violations[e.ID] = append(violations[e.ID], viol.String())
			}
		}
	}
	rep.Violations = violations
	fmt.Fprintf(stderr, "bbchaos: %d artifacts recomputed on the damaged dataset in %v\n",
		len(reports), time.Since(start).Round(time.Millisecond))
	if len(violations) > 0 {
		for id, vs := range violations {
			for _, v := range vs {
				fmt.Fprintf(stderr, "bbchaos: %s: %s\n", id, v)
			}
		}
		fmt.Fprintf(stderr, "bbchaos: conclusions moved under fault rate %g (%d artifacts violated)\n", *rate, len(violations))
		return finish(1)
	}
	fmt.Fprintf(stderr, "bbchaos: scorecard intact under fault rate %g\n", *rate)
	return finish(0)
}

// copyDataset copies the three table files (plain or .gz) from src into dst
// without touching src.
func copyDataset(src, dst string) error {
	copied := 0
	for _, base := range chaos.Tables {
		for _, name := range []string{base, base + ".gz"} {
			from, err := os.Open(filepath.Join(src, name))
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			if err != nil {
				return err
			}
			_, err = fsx.CopyAtomic(filepath.Join(dst, name), io.Reader(from))
			from.Close()
			if err != nil {
				return err
			}
			copied++
			break
		}
	}
	if copied != len(chaos.Tables) {
		return fmt.Errorf("bbchaos: %s does not hold a complete dataset (%d of %d tables)", src, copied, len(chaos.Tables))
	}
	return nil
}
