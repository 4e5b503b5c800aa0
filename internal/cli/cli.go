// Package cli holds the shared plumbing of the repo's commands: the
// signal-aware root context, the exit-code convention, and the world-size
// flags every world-building command registers (WorldFlags). Every command
// cancels its work on SIGINT/SIGTERM and exits 130 (the shell convention
// for a signal-terminated run) instead of leaving partial output behind —
// all artifact writes go through internal/fsx, so an interrupted command
// leaves either a complete file or no file.
package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// ExitInterrupted is the exit status of a run cancelled by SIGINT/SIGTERM.
const ExitInterrupted = 130

// Context returns a context cancelled on SIGINT or SIGTERM. Call the stop
// function when shutdown handling is no longer needed; a second signal
// after stop kills the process the default way.
func Context() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// ExitCode prints the error as "prog: err" to w and returns the exit
// status: ExitInterrupted when the chain carries a context cancellation,
// else code. Commands return it from run, so deferred cleanup runs on
// every exit path before main calls os.Exit.
func ExitCode(w io.Writer, prog string, err error, code int) int {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(w, "%s: interrupted\n", prog)
		return ExitInterrupted
	}
	fmt.Fprintf(w, "%s: %v\n", prog, err)
	return code
}
