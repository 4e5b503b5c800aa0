// Command bbmarket explores the synthetic retail broadband market world:
// per-country plan catalogs, the two market price metrics (access price and
// upgrade cost), and regional summaries.
//
// Usage:
//
//	bbmarket                 # summary table of every market
//	bbmarket -country JP     # one country's catalog and metrics
//	bbmarket -regions        # the Table 5 regional aggregation
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/nwca/broadband/internal/cli"
	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/randx"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status rather than
// exiting, so deferred cleanup runs on every path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbmarket", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed    = fs.Uint64("seed", 20140705, "catalog generation seed")
		country = fs.String("country", "", "show one country's catalog (ISO code)")
		regions = fs.Bool("regions", false, "show regional upgrade-cost shares")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	// Ctrl-C / SIGTERM stops the per-country sweep at the next market.
	ctx, stop := cli.Context()
	defer stop()

	profiles := market.World()
	catalogs := market.BuildAllCatalogs(profiles, randx.New(*seed).Split("catalogs"))

	if *country != "" {
		cat, ok := catalogs[*country]
		if !ok {
			fmt.Fprintf(stderr, "bbmarket: unknown country %q\n", *country)
			return 1
		}
		sum, err := market.Summarize(cat)
		if err != nil {
			fmt.Fprintf(stderr, "bbmarket: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s (%s) — %s\n", cat.Country.Name, cat.Country.Code, cat.Country.Region)
		fmt.Fprintf(stdout, "GDP per capita (PPP): $%.0f\n", cat.Country.GDPPerCapitaPPP)
		fmt.Fprintf(stdout, "access price:  %v/month (group %v)\n", sum.AccessPrice, sum.AccessGroup)
		fmt.Fprintf(stdout, "upgrade cost:  %v (r=%.2f over %d plans, reliable=%v)\n\n",
			sum.Upgrade.Slope, sum.Upgrade.R, sum.Upgrade.N, sum.Upgrade.Reliable())
		for _, p := range cat.Plans {
			fmt.Fprintf(stdout, "  %v\n", p)
		}
		return 0
	}

	if *regions {
		type agg struct{ n, o1, o5, o10 int }
		byRegion := map[market.Region]*agg{}
		for _, cat := range catalogs {
			sum, err := market.Summarize(cat)
			if err != nil || !sum.Upgrade.Reliable() {
				continue
			}
			a := byRegion[sum.Country.Region]
			if a == nil {
				a = &agg{}
				byRegion[sum.Country.Region] = a
			}
			a.n++
			s := float64(sum.Upgrade.Slope)
			if s > 1 {
				a.o1++
			}
			if s > 5 {
				a.o5++
			}
			if s > 10 {
				a.o10++
			}
		}
		fmt.Fprintf(stdout, "%-28s %4s %6s %6s %6s\n", "Region", "n", ">$1", ">$5", ">$10")
		for _, r := range market.Regions() {
			a := byRegion[r]
			if a == nil {
				continue
			}
			fmt.Fprintf(stdout, "%-28s %4d %5.0f%% %5.0f%% %5.0f%%\n", r, a.n,
				100*float64(a.o1)/float64(a.n), 100*float64(a.o5)/float64(a.n), 100*float64(a.o10)/float64(a.n))
		}
		return 0
	}

	codes := make([]string, 0, len(catalogs))
	for cc := range catalogs {
		codes = append(codes, cc)
	}
	sort.Strings(codes)
	fmt.Fprintf(stdout, "%-4s %-22s %-28s %10s %14s %6s\n", "cc", "country", "region", "access", "upgrade", "plans")
	for _, cc := range codes {
		if err := ctx.Err(); err != nil {
			return cli.ExitCode(stderr, "bbmarket", err, 1)
		}
		cat := catalogs[cc]
		sum, err := market.Summarize(cat)
		if err != nil {
			continue
		}
		fmt.Fprintf(stdout, "%-4s %-22s %-28s %10v %14v %6d\n",
			cc, cat.Country.Name, cat.Country.Region, sum.AccessPrice, sum.Upgrade.Slope, len(cat.Plans))
	}
	return 0
}
