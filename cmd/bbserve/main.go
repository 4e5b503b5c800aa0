// Command bbserve runs the broadband-analytics server: panel uploads
// through the quarantine boundary, artifact queries for every registry
// entry, and ad-hoc scenario runs, behind per-request deadlines, admission
// control, and panic recovery. SIGINT/SIGTERM starts a graceful drain —
// readiness flips to 503, in-flight requests finish under the drain
// deadline — and the process exits 130 by the repo's interrupt convention.
//
//	bbserve -addr :8080 -store /var/lib/bbserve
//	curl -fsS localhost:8080/healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"github.com/nwca/broadband/internal/cli"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is the whole command; it returns the exit status rather than
// exiting, so deferred cleanup runs on every path.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	storeDir := fs.String("store", "", "dataset storage directory (empty = in-memory)")
	maxInFlight := fs.Int("max-inflight", serve.DefaultMaxInFlight, "concurrent requests served before shedding with 429")
	timeout := fs.Duration("timeout", serve.DefaultRequestTimeout, "per-request deadline")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline")
	maxUpload := fs.Int64("max-upload", serve.DefaultMaxUploadBytes, "upload body cap in bytes")
	badFrac := fs.Float64("max-bad-frac", 0, "upload quarantine error budget (0 = default 5%)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	logger := log.New(stderr, "bbserve: ", log.LstdFlags)

	var store serve.Store
	if *storeDir != "" {
		ds, err := serve.NewDiskStore(*storeDir)
		if err != nil {
			return cli.ExitCode(stderr, "bbserve", err, 1)
		}
		store = ds
	}

	srv := serve.New(serve.Config{
		Store:          store,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *timeout,
		MaxUploadBytes: *maxUpload,
		Quarantine:     dataset.QuarantineOptions{MaxBadFrac: *badFrac},
		Log:            logger,
	})

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          logger,
	}

	ctx, stop := cli.Context()
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Printf("listening on %s (store=%s timeout=%s max-inflight=%d)",
		*addr, storeDesc(*storeDir), *timeout, *maxInFlight)

	select {
	case err := <-errc:
		return cli.ExitCode(stderr, "bbserve", err, 1)
	case <-ctx.Done():
	}

	// Signal received: drain requests, then shut the listener down, both
	// under the same deadline. Drain errors are reported but do not block
	// exit — the deadline is the promise.
	logger.Printf("signal received; draining (deadline %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logger.Printf("drain: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	logger.Printf("drained; exiting")
	return cli.ExitCode(stderr, "bbserve", ctx.Err(), 1) // context.Canceled → exit 130
}

func storeDesc(dir string) string {
	if dir == "" {
		return "memory"
	}
	return fmt.Sprintf("disk:%s", dir)
}
