// Command bbstats computes the streaming characterization overview (the
// online analogue of the paper's Fig. 1) over a dataset directory — the
// monolithic users.csv(.gz) or an out-of-core shard set — in one pass with
// bounded resident memory.
//
// Usage:
//
//	bbstats -data data/                 # human-readable overview
//	bbstats -data data/ -json           # canonical JSON artifact
//	bbstats -data data/ -maxrss-mb 512  # fail if peak RSS exceeds budget
//
// -maxrss-mb makes the process its own memory harness: after the pass it
// reads the kernel's high-water RSS and exits nonzero over budget. CI's
// out-of-core smoke drives a 1M-user shard set through this gate.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/nwca/broadband/internal/cli"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/experiments"
	"github.com/nwca/broadband/internal/golden"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status rather than
// exiting, so deferred cleanup runs on every path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbstats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		data     = fs.String("data", "data", "dataset directory (monolithic or sharded users table)")
		asJSON   = fs.Bool("json", false, "emit the overview as canonical JSON instead of text")
		maxRSSMB = fs.Int64("maxrss-mb", 0, "fail when peak RSS exceeds this budget in MiB (0 = no budget)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	sketch, err := experiments.NewOverviewSketch()
	if err != nil {
		return cli.ExitCode(stderr, "bbstats", err, 1)
	}
	if err := dataset.EachUser(*data, sketch.AddUser); err != nil {
		return cli.ExitCode(stderr, "bbstats", err, 1)
	}
	overview, err := sketch.Overview()
	if err != nil {
		return cli.ExitCode(stderr, "bbstats", err, 1)
	}

	if *asJSON {
		raw, err := golden.Marshal(overview)
		if err != nil {
			return cli.ExitCode(stderr, "bbstats", err, 1)
		}
		stdout.Write(raw)
		fmt.Fprintln(stdout)
	} else {
		fmt.Fprint(stdout, overview.Render())
	}

	fmt.Fprintf(stderr, "bbstats: %d users streamed from %s, peak RSS %s\n", overview.Users, *data, cli.PeakRSS())
	if *maxRSSMB > 0 {
		peak := cli.PeakRSSBytes()
		if peak == 0 {
			return cli.ExitCode(stderr, "bbstats", fmt.Errorf("-maxrss-mb set but peak RSS is unreadable on this platform"), 1)
		}
		if budget := *maxRSSMB << 20; peak > budget {
			return cli.ExitCode(stderr, "bbstats", fmt.Errorf("peak RSS %s exceeds the %d MiB budget", cli.PeakRSS(), *maxRSSMB), 1)
		}
	}
	return 0
}
