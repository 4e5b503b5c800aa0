package fsx

import (
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"time"
)

// The retry schedule: a short, capped schedule sized for transient
// filesystem hiccups (NFS blips, overloaded disks, antivirus locks), not
// for outages. retryAttempts is the total number of tries (not re-tries);
// retryBase is the sleep before the second attempt, and each further sleep
// doubles; retryCap bounds every sleep.
const (
	retryAttempts = 4
	retryBase     = 5 * time.Millisecond
	retryCap      = 250 * time.Millisecond
)

// retrySleep computes the jittered backoff before attempt n (0-based:
// retrySleep(0) precedes the second attempt): min(cap, base<<n) scaled by
// a uniform [0.5, 1) draw so a herd of retriers decorrelates.
func retrySleep(n int) time.Duration {
	d := min(retryBase<<uint(n), retryCap)
	return time.Duration((0.5 + 0.5*rand.Float64()) * float64(d))
}

// Retry runs op up to retryAttempts times, separated by jittered, capped
// exponential backoff. It returns nil on the first success and the last
// error otherwise. Context cancellation is honored both between attempts
// and while sleeping, and an error that is (or wraps) the context's error
// is never retried — the caller is leaving.
func Retry(ctx context.Context, op func() error) error {
	return retry(ctx, op, nil)
}

// retry is Retry with a classifier: an error for which final reports true
// ends the schedule at once. A nil final retries every error.
func retry(ctx context.Context, op func() error, final func(error) bool) error {
	var err error
	for n := 0; n < retryAttempts; n++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			return err
		}
		if err = op(); err == nil {
			return nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if final != nil && final(err) {
			return err
		}
		if n == retryAttempts-1 {
			break
		}
		t := time.NewTimer(retrySleep(n))
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
	}
	return err
}

// RetryWrite is WriteFileAtomic under Retry: transient write
// failures (the staged temp file is always cleaned up between attempts)
// are retried with capped exponential backoff, so a blip during an
// artifact or report write does not cost the whole run. The atomicity
// contract is unchanged — the destination sees either its old content or
// the full new content, whatever attempt lands it.
func RetryWrite(ctx context.Context, path string, data []byte, perm os.FileMode) error {
	return Retry(ctx, func() error { return WriteFileAtomic(path, data, perm) })
}

// RetryRead is os.ReadFile under Retry, for readers whose transport can
// fail transiently (the serve disk store's pointer files). os.ErrNotExist
// is final: a missing file is a state, not a blip.
func RetryRead(ctx context.Context, path string) ([]byte, error) {
	var data []byte
	err := retry(ctx, func() error {
		var rerr error
		data, rerr = os.ReadFile(path)
		return rerr
	}, func(err error) bool { return errors.Is(err, os.ErrNotExist) })
	return data, err
}
