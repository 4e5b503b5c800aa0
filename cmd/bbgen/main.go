// Command bbgen generates the study's three synthetic datasets (end-host
// panel, gateway panel, retail-plan survey) and writes them as CSV files.
//
// Usage:
//
//	bbgen -out data/
//
// writes the canonical world (cli.CanonicalWorld), the one bbrepro
// analyzes by default; -seed and the world-size flags pick another. The
// output directory receives users.csv, switches.csv and plans.csv in
// the schema documented in internal/dataset.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/cli"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is the whole command; it returns the exit status rather than
// exiting, so deferred cleanup runs on every path.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("out", "data", "output directory for the CSV files")
		seed     = fs.Uint64("seed", cli.CanonicalWorld.Seed, "world seed (all data is deterministic in it)")
		worldCfg = cli.WorldFlags(fs, cli.CanonicalWorld)
		gz       = fs.Bool("gzip", false, "write gzip-compressed CSVs (users.csv.gz etc.; bbrepro -data reads either)")
		shards   = fs.Int("shards", 0, "write the user panel out-of-core as N shard files (users-00000-of-0000N.csv …); 0 builds in memory. Resident memory stays bounded regardless of -users")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	// Ctrl-C / SIGTERM cancels generation and the save; writes are atomic,
	// so an interrupted bbgen leaves no partial table files behind.
	ctx, stop := cli.Context()
	defer stop()

	cfg := worldCfg()
	cfg.Seed = *seed
	start := time.Now()
	if *shards > 0 {
		fmt.Fprintf(stderr, "bbgen: generating world out-of-core (seed=%d, users=%d, shards=%d)...\n", cfg.Seed, cfg.Users, *shards)
		rep, err := broadband.BuildWorldSharded(ctx, cfg, broadband.ShardSpec{Dir: *out, Shards: *shards, Gzip: *gz})
		if err != nil {
			return cli.ExitCode(stderr, "bbgen", err, 1)
		}
		if n := rep.SkippedHouseholds(); n > 0 {
			fmt.Fprintf(stderr, "bbgen: %d households skipped (no affordable plan after every redraw)\n", n)
		}
		fmt.Fprintf(stderr, "bbgen: wrote %d users (%d shards), %d switches, %d plans to %s in %v (peak RSS %s)\n",
			rep.Users, len(rep.ShardFiles), rep.Switches, rep.Plans, *out,
			time.Since(start).Round(time.Millisecond), cli.PeakRSS())
		return 0
	}
	fmt.Fprintf(stderr, "bbgen: generating world (seed=%d, users=%d)...\n", cfg.Seed, cfg.Users)
	world, err := broadband.BuildWorldCtx(ctx, cfg)
	if err != nil {
		return cli.ExitCode(stderr, "bbgen", err, 1)
	}
	if n := world.SkippedHouseholds(); n > 0 {
		fmt.Fprintf(stderr, "bbgen: %d households skipped (no affordable plan after every redraw)\n", n)
	}
	if err := broadband.SaveDatasetCtx(ctx, &world.Data, *out, broadband.SaveOptions{Gzip: *gz}); err != nil {
		return cli.ExitCode(stderr, "bbgen", err, 1)
	}
	fmt.Fprintf(stderr, "bbgen: wrote %d users, %d switches, %d plans to %s in %v\n",
		len(world.Data.Users), len(world.Data.Switches), len(world.Data.Plans), *out,
		time.Since(start).Round(time.Millisecond))
	return 0
}
