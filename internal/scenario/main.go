package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"

	"github.com/nwca/broadband/internal/cli"
	"github.com/nwca/broadband/internal/fsx"
	"github.com/nwca/broadband/internal/synth"
)

// Exit codes, following the repo's CLI convention: 1 is a failed
// expectation (the gate tripped), 2 is a harness error (bad pack, build
// failure, bad flags), 130 an interrupted run.
const (
	ExitOK      = 0
	ExitFail    = 1
	ExitErr     = 2
	ExitSignal  = cli.ExitInterrupted
	defaultDir  = "testdata/scenarios"
	defaultSeed = "20140705,7"
)

// Main is the bbscenario entry point, factored for in-process testing: the
// command wrapper passes os.Args[1:] and the real streams, tests pass
// fabricated ones and assert on the exit code.
func Main(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbscenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all      = fs.Bool("all", false, "run every pack in -dir (otherwise name pack files as arguments)")
		dir      = fs.String("dir", defaultDir, "scenario pack directory for -all")
		run      = fs.String("run", "", "only run packs whose name matches this regexp")
		seeds    = fs.String("seeds", defaultSeed, "comma-separated world seeds to assert at")
		worldCfg = cli.WorldFlags(fs, synth.Config{Users: 1000, FCCUsers: 250, Days: 2, SwitchTarget: 200, MinPerCountry: 10})
		jsonOut  = fs.String("json", "", "write the machine-readable report to this file (atomic)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bbscenario [flags] [pack.json ...]\n\n"+
			"Runs declarative counterfactual scenario packs against the registry:\n"+
			"baseline + N delta worlds per seed, one PASS/FAIL line per expectation.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitErr
	}

	var packs []*Pack
	var err error
	switch {
	case *all && fs.NArg() > 0:
		fmt.Fprintln(stderr, "bbscenario: -all and explicit pack files are mutually exclusive")
		return ExitErr
	case *all:
		packs, err = LoadDir(*dir)
	case fs.NArg() == 0:
		fmt.Fprintln(stderr, "bbscenario: nothing to run: pass -all or pack files")
		return ExitErr
	default:
		for _, f := range fs.Args() {
			p, perr := LoadPack(f)
			if perr != nil {
				err = perr
				break
			}
			packs = append(packs, p)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bbscenario: %v\n", err)
		return ExitErr
	}

	if *run != "" {
		re, rerr := regexp.Compile(*run)
		if rerr != nil {
			fmt.Fprintf(stderr, "bbscenario: bad -run pattern: %v\n", rerr)
			return ExitErr
		}
		kept := packs[:0]
		for _, p := range packs {
			if re.MatchString(p.Name) {
				kept = append(kept, p)
			}
		}
		packs = kept
		if len(packs) == 0 {
			fmt.Fprintf(stderr, "bbscenario: no pack matches -run %q\n", *run)
			return ExitErr
		}
	}

	seedList, err := parseSeeds(*seeds)
	if err != nil {
		fmt.Fprintf(stderr, "bbscenario: %v\n", err)
		return ExitErr
	}

	rep, err := Run(ctx, packs, Options{Base: worldCfg(), Seeds: seedList})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "bbscenario: interrupted")
			return ExitSignal
		}
		fmt.Fprintf(stderr, "bbscenario: %v\n", err)
		return ExitErr
	}
	rep.Render(stdout)
	if *jsonOut != "" {
		data, merr := json.MarshalIndent(rep, "", "  ")
		if merr != nil {
			fmt.Fprintf(stderr, "bbscenario: %v\n", merr)
			return ExitErr
		}
		if werr := fsx.RetryWrite(context.Background(), *jsonOut, append(data, '\n'), 0o644); werr != nil {
			fmt.Fprintf(stderr, "bbscenario: %v\n", werr)
			return ExitErr
		}
	}
	if !rep.OK() {
		return ExitFail
	}
	return ExitOK
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds in %q", s)
	}
	return out, nil
}
