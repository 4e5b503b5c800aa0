package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestForNCtxFailFast pins the fail-fast half of ForNCtx's contract: after
// the first error, dispatching stops, so with a failure at index 0 far fewer
// than n indices run. The exact count is scheduling-dependent but bounded by
// the in-flight window (one task per worker plus the failing one).
func TestForNCtxFailFast(t *testing.T) {
	errBoom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		block := make(chan struct{})
		err := ForNCtx(context.Background(), workers, 10_000, func(i int) error {
			ran.Add(1)
			if i == 0 {
				close(block) // release any peers already dispatched
				return errBoom
			}
			<-block // first-wave peers wait so index 0 always fails first
			return nil
		})
		if !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: got %v, want the injected error", workers, err)
		}
		// Workers stop dispatching once the failure lands; only tasks already
		// in flight (at most one per worker beyond the failing index, plus a
		// grab-then-check race per worker) may still run.
		if got := ran.Load(); got > int64(3*workers) {
			t.Errorf("workers=%d: %d indices ran after a first-task failure; fail-fast should stop dispatch", workers, got)
		}
	}
}

// TestForNCtxReturnsLowestIndexedError: among the indices that did run, the
// reported error is the lowest-indexed one, the error a sequential loop
// would stop at.
func TestForNCtxReturnsLowestIndexedError(t *testing.T) {
	errLow := errors.New("low")
	// workers=2 with both initial dispatches failing: whichever order the
	// scheduler picks, index 0's error must win.
	err := ForNCtx(context.Background(), 2, 2, func(i int) error {
		if i == 0 {
			return errLow
		}
		return fmt.Errorf("high")
	})
	if !errors.Is(err, errLow) {
		t.Errorf("got %v, want the lowest-indexed error", err)
	}
}

// TestForNReturnsLowestIndexedError: with failures at indices 17 and 80, the
// error reported is index 17's, sequentially and across workers.
func TestForNReturnsLowestIndexedError(t *testing.T) {
	errLow := errors.New("low")
	for _, workers := range []int{1, 4} {
		err := ForNCtx(context.Background(), workers, 100, func(i int) error {
			switch i {
			case 17:
				return errLow
			case 80:
				return fmt.Errorf("high")
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Errorf("workers=%d: got %v, want the lowest-indexed error", workers, err)
		}
	}
}

// TestForNCtxEmpty: n = 0 never invokes fn.
func TestForNCtxEmpty(t *testing.T) {
	if err := ForNCtx(context.Background(), 4, 0, func(int) error { return errors.New("boom") }); err != nil {
		t.Error("n=0 must not invoke fn")
	}
}

// TestForNCtxCancellation: a cancelled context stops dispatch and surfaces
// ctx.Err() when no task error occurred first.
func TestForNCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		cancelled := make(chan struct{})
		err := ForNCtx(ctx, workers, 10_000, func(i int) error {
			if ran.Add(1) == 1 {
				cancel() // cancel from inside the first task
				close(cancelled)
				return nil
			}
			// Peers wait until the cancel has landed, so the bound below
			// counts only dispatches after cancellation, not tasks that
			// raced ahead while the first one had yet to call cancel.
			<-cancelled
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got > int64(3*workers) {
			t.Errorf("workers=%d: %d indices ran after cancellation", workers, got)
		}
	}
}

// TestForNCtxPreCancelled: a context cancelled before the call runs nothing.
func TestForNCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForNCtx(ctx, 4, 100, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The concurrent path may dispatch at most one grab per worker before
	// observing cancellation; sequential dispatches none.
	if got := ran.Load(); got > 4 {
		t.Errorf("%d indices ran under a pre-cancelled context", got)
	}
}

// TestForNRunsEveryIndexOnce: with no errors and no cancellation, every
// index runs exactly once, for worker counts below and above n.
func TestForNRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64, 200} {
		n := 153
		counts := make([]atomic.Int32, n)
		if err := ForNCtx(context.Background(), workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForNCtxCompletesCleanly: under a live, never-cancelled context, ForNCtx
// returns nil and the slots it fills match a sequential loop's, whatever the
// worker count.
func TestForNCtxCompletesCleanly(t *testing.T) {
	const n = 153
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 7} {
		ctx, cancel := context.WithCancel(context.Background())
		got := make([]int, n)
		err := ForNCtx(ctx, workers, n, func(i int) error {
			got[i] = i * i
			return nil
		})
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}
