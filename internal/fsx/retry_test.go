package fsx_test

// The retry tests live in fsx_test so they can drive fsx.Retry with the
// chaos package's deterministic flaky-writer wrapper (chaos itself imports
// fsx for its atomic rewrites, so an internal test would cycle).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/nwca/broadband/internal/chaos"
	"github.com/nwca/broadband/internal/fsx"
)

// retryAttempts mirrors fsx's fixed schedule of four tries.
const retryAttempts = 4

func TestRetryAgainstFlakyWriter(t *testing.T) {
	// A flaky writer at rate 0.5: whether call n fails is a pure function
	// of (seed, file, n), so the whole schedule below is deterministic. At
	// seed 1 the first three calls fail, so only the last of the four
	// attempts lands.
	in := chaos.New(chaos.Config{Seed: 1})
	var buf bytes.Buffer
	w := in.FlakyWriter("report.json", &buf, 0.5)

	payload := []byte("retry payload")
	var attempts int
	err := fsx.Retry(context.Background(), func() error {
		attempts++
		buf.Reset() // a failed call wrote nothing, but stay defensive
		_, werr := w.Write(payload)
		return werr
	})
	if err != nil {
		t.Fatalf("Retry: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), payload) {
		t.Fatalf("buffer = %q, want %q", buf.Bytes(), payload)
	}
	if attempts != retryAttempts {
		t.Fatalf("attempts = %d, want %d", attempts, retryAttempts)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	in := chaos.New(chaos.Config{Seed: 1})
	w := in.FlakyWriter("doomed.csv", bytes.NewBuffer(nil), 1.0) // every call fails
	attempts := 0
	err := fsx.Retry(context.Background(), func() error {
		attempts++
		_, werr := w.Write([]byte("x"))
		return werr
	})
	var fe *chaos.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *chaos.FaultError", err)
	}
	if attempts != retryAttempts {
		t.Fatalf("attempts = %d, want %d", attempts, retryAttempts)
	}
	if fe.Call != retryAttempts {
		t.Fatalf("last fault at call %d, want %d", fe.Call, retryAttempts)
	}
}

func TestRetryStopsOnContextCancel(t *testing.T) {
	// Each call's first backoff sleep is at least 2.5 ms, so twenty calls
	// that slept before noticing the cancellation would take 50 ms or more.
	const calls = 20
	start := time.Now()
	for range calls {
		ctx, cancel := context.WithCancel(context.Background())
		attempts := 0
		err := fsx.Retry(ctx, func() error {
			attempts++
			cancel() // cancelled mid-schedule: the backoff sleep must not block
			return errors.New("transient")
		})
		if err == nil {
			t.Fatal("want error after cancellation")
		}
		if attempts != 1 {
			t.Fatalf("attempts = %d, want 1 (no retry after cancel)", attempts)
		}
	}
	if el := time.Since(start); el >= 25*time.Millisecond {
		t.Fatalf("%d cancelled calls took %v: the backoff sleep blocked", calls, el)
	}
}

// TestRetryRespectsTransientClassifier pins Retry's built-in classifier:
// an error that wraps a context error is final even while the caller's own
// context is live, and every other error is retried.
func TestRetryRespectsTransientClassifier(t *testing.T) {
	for _, final := range []error{context.Canceled, context.DeadlineExceeded} {
		attempts := 0
		err := fsx.Retry(context.Background(), func() error {
			attempts++
			return fmt.Errorf("upstream: %w", final)
		})
		if !errors.Is(err, final) || attempts != 1 {
			t.Fatalf("err = %v after %d attempts, want %v after 1", err, attempts, final)
		}
	}
	attempts := 0
	err := fsx.Retry(context.Background(), func() error {
		attempts++
		return errors.New("transient")
	})
	if err == nil || attempts != retryAttempts {
		t.Fatalf("err = %v after %d attempts, want an error after %d", err, attempts, retryAttempts)
	}
}

func TestRetryWriteLandsAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := fsx.RetryWrite(context.Background(), path, []byte("v1"), 0o644); err != nil {
		t.Fatalf("RetryWrite: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v1" {
		t.Fatalf("read back %q, %v", got, err)
	}
	// No staging litter.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(ents))
	}
}

func TestRetryReadMissingFileIsFinal(t *testing.T) {
	// A retried miss sleeps at least 2.5 + 5 + 10 ms before giving up, so
	// five retried misses would take 87.5 ms or more.
	const calls = 5
	path := filepath.Join(t.TempDir(), "nope")
	start := time.Now()
	for range calls {
		if _, err := fsx.RetryRead(context.Background(), path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("err = %v, want ErrNotExist", err)
		}
	}
	if el := time.Since(start); el >= 40*time.Millisecond {
		t.Fatalf("%d misses took %v: a missing file was retried", calls, el)
	}
}
