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

// Exit prints the error as "prog: err" and exits: with ExitInterrupted when
// the chain carries a context cancellation, else with code.
func Exit(prog string, err error, code int) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "%s: interrupted\n", prog)
		os.Exit(ExitInterrupted)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(code)
}
