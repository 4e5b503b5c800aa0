// Command ndtsim runs one NDT-style measurement (RTT probe train, bulk TCP
// download and upload) over a configurable simulated access line and prints
// the result — a direct demo of the packet-level substrate.
//
// Usage:
//
//	ndtsim -down 10Mbps -up 1Mbps -rtt 40ms -loss 0.5 -duration 10
//	ndtsim -down 8Mbps -up 768kbps -rtt 600ms -loss 2 -burst   # satellite-ish
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/nwca/broadband/internal/cli"
	"github.com/nwca/broadband/internal/netsim"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status rather than
// exiting, so deferred cleanup runs on every path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ndtsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		down     = fs.String("down", "10Mbps", "downstream capacity")
		up       = fs.String("up", "1Mbps", "upstream capacity")
		rtt      = fs.Duration("rtt", 40*time.Millisecond, "base round-trip time")
		lossPct  = fs.Float64("loss", 0.1, "stationary packet-loss percentage")
		burst    = fs.Bool("burst", false, "use a bursty (Gilbert–Elliott) loss channel")
		duration = fs.Float64("duration", 10, "seconds per throughput test (virtual time)")
		seed     = fs.Uint64("seed", 1, "random seed for the loss processes")
		loaded   = fs.Bool("loaded", false, "also measure latency under load (bufferbloat)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	// Ctrl-C / SIGTERM stops between measurement phases (each phase runs in
	// virtual time and finishes in well under a second of wall clock).
	ctx, stop := cli.Context()
	defer stop()

	downRate, err := unit.ParseBitrate(*down)
	if err != nil {
		return cli.ExitCode(stderr, "ndtsim", err, 1)
	}
	upRate, err := unit.ParseBitrate(*up)
	if err != nil {
		return cli.ExitCode(stderr, "ndtsim", err, 1)
	}
	loss := unit.LossFromPercent(*lossPct)
	model := netsim.LossModel{Rate: loss}
	if *burst {
		model = netsim.BurstyLoss(loss)
	}
	oneWay := rtt.Seconds() / 2
	line := netsim.AccessLine{
		Down: netsim.LinkConfig{Rate: downRate, Delay: oneWay, Loss: model, Name: "down"},
		Up:   netsim.LinkConfig{Rate: upRate, Delay: oneWay, Loss: model, Name: "up"},
	}

	fmt.Fprintf(stdout, "line: %v down / %v up, base RTT %v, loss %v (burst=%v)\n",
		downRate, upRate, *rtt, loss, *burst)
	if err := ctx.Err(); err != nil {
		return cli.ExitCode(stderr, "ndtsim", err, 1)
	}
	res, err := netsim.RunNDT(line, netsim.NDTConfig{Duration: *duration}, randx.New(*seed))
	if err != nil {
		return cli.ExitCode(stderr, "ndtsim", err, 1)
	}
	fmt.Fprintf(stdout, "download:     %v\n", res.DownloadRate)
	fmt.Fprintf(stdout, "upload:       %v\n", res.UploadRate)
	fmt.Fprintf(stdout, "rtt:          %.1f ms\n", res.RTT*1000)
	fmt.Fprintf(stdout, "channel loss: %v\n", res.ChannelLoss)
	fmt.Fprintf(stdout, "total loss:   %v (includes self-induced queue drops)\n", res.TotalLoss)
	st := res.DownStats
	fmt.Fprintf(stdout, "down link:    %d sent, %d delivered, %d queue drops, %d channel drops\n",
		st.Sent, st.Delivered, st.DroppedQueue, st.DroppedLoss)
	mathis := netsim.MathisThroughput(netsim.MSS, res.RTT, res.ChannelLoss)
	fmt.Fprintf(stdout, "mathis bound: %v\n", mathis)

	if *loaded {
		if err := ctx.Err(); err != nil {
			return cli.ExitCode(stderr, "ndtsim", err, 1)
		}
		lr, err := netsim.MeasureLoadedRTT(line, *duration, randx.New(*seed).Split("loaded"))
		if err != nil {
			return cli.ExitCode(stderr, "ndtsim", err, 1)
		}
		fmt.Fprintf(stdout, "loaded rtt:   %.1f ms (×%.1f over idle %.1f ms, %d probes)\n",
			lr.LoadedRTT*1000, lr.Inflation, lr.IdleRTT*1000, lr.Probes)
	}
	return 0
}
