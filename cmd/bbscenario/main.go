// Command bbscenario runs declarative counterfactual scenario packs
// against the reproduction registry, opa-test-style: the baseline world
// plus one delta world per pack at every seed, one PASS/FAIL line per
// expectation, summary counts, exit 1 on any FAIL.
//
// Usage:
//
//	bbscenario -all                           # run testdata/scenarios/
//	bbscenario -all -run 'cap-'               # filter packs by regexp
//	bbscenario -all -json report.json         # machine-readable report
//	bbscenario testdata/scenarios/cap-removal.json
package main

import (
	"io"
	"os"

	"github.com/nwca/broadband/internal/cli"
	"github.com/nwca/broadband/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status rather than
// exiting, so deferred cleanup runs on every path.
func run(args []string, stdout, stderr io.Writer) int {
	ctx, stop := cli.Context()
	defer stop()
	return scenario.Main(ctx, args, stdout, stderr)
}
