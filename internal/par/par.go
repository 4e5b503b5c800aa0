// Package par provides the deterministic fan-out primitive the pipeline
// parallelizes with: run an indexed set of independent tasks over a bounded
// worker pool, collecting results by index so callers can merge them in
// canonical order. Determinism is the contract — callers write results into
// index i of a preallocated slice, so the observable output is identical
// whatever the worker count or scheduling order.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// ForNCtx runs fn(i) for every i in [0, n) across at most workers
// goroutines, failing fast: no new index is dispatched after the first fn
// error or after ctx is cancelled. Indices already running are allowed to
// finish (fn is never interrupted mid-call), so caller-owned result slots
// are either fully written or untouched. The returned error is the
// lowest-indexed fn error among the indices that ran; if no fn failed but
// the context was cancelled, it is ctx.Err(). workers <= 1 (or n <= 1)
// degrades to a plain loop on the calling goroutine.
func ForNCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var stop atomic.Bool
	var next atomic.Int64
	done := ctx.Done()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				select {
				case <-done:
					stop.Store(true)
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
