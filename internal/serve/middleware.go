package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
)

// The middleware stack, outermost first:
//
//	recover → drain/track → admission → timeout → handler
//
// recover turns a handler panic into a logged 500 instead of a dead
// process; drain/track counts in-flight requests and sheds new ones once
// Drain has started; admission bounds concurrent work with a semaphore and
// sheds the excess with 429 + Retry-After; timeout puts a deadline on the
// request context and the request body, so a slow-loris upload is cut off
// by the server rather than waited out.

// withRecover is the outermost layer: nothing below it can kill the
// process. The stack is logged server-side; the client sees a plain 500.
func (s *Server) withRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withTrack counts the request toward Drain's in-flight total and rejects
// new work once draining has begun. Probe endpoints bypass this layer: a
// draining server still answers /healthz and reports NotReady on /readyz.
func (s *Server) withTrack(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server draining", http.StatusServiceUnavailable)
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		next.ServeHTTP(w, r)
	})
}

// withAdmission is the load-shedding layer: a bounded semaphore of
// MaxInFlight slots. A request that cannot get a slot immediately is shed
// with 429 and Retry-After — queueing it would just move the overload into
// memory and stretch every in-flight deadline.
func (s *Server) withAdmission(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			next.ServeHTTP(w, r)
		default:
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server at capacity", http.StatusTooManyRequests)
		}
	})
}

// withTimeout deadlines the request: the context (which the /reports
// fan-out and scenario.Run observe) and the body (which upload copies read through a
// context-checking wrapper, so a dribbling client fails the read instead
// of holding a slot forever).
func (s *Server) withTimeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		if r.Body != nil {
			r.Body = &deadlineBody{ctx: ctx, rc: r.Body}
		}
		next.ServeHTTP(w, r)
	})
}

// deadlineBody fails reads once the request context is done. The check
// runs before each Read: chaos's slow-loris body returns between chunks,
// so the first read attempted past the deadline surfaces the expiry.
type deadlineBody struct {
	ctx context.Context
	rc  io.ReadCloser
}

func (b *deadlineBody) Read(p []byte) (int, error) {
	if err := b.ctx.Err(); err != nil {
		return 0, fmt.Errorf("request body: %w", err)
	}
	return b.rc.Read(p)
}

func (b *deadlineBody) Close() error { return b.rc.Close() }
