package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestExitCode(t *testing.T) {
	for _, c := range []struct {
		name string
		err  error
		code int
		want string
	}{
		{"plain error", errors.New("disk full"), 1, "bbx: disk full\n"},
		{"harness error keeps its code", errors.New("bad manifest"), 2, "bbx: bad manifest\n"},
		{"cancellation", context.Canceled, 1, "bbx: interrupted\n"},
		{"wrapped cancellation", fmt.Errorf("build: %w", context.Canceled), 2, "bbx: interrupted\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var w bytes.Buffer
			want := c.code
			if errors.Is(c.err, context.Canceled) {
				want = ExitInterrupted
			}
			if got := ExitCode(&w, "bbx", c.err, c.code); got != want {
				t.Errorf("ExitCode = %d, want %d", got, want)
			}
			if w.String() != c.want {
				t.Errorf("printed %q, want %q", w.String(), c.want)
			}
		})
	}
}

func TestContextCancelledByStop(t *testing.T) {
	ctx, stop := Context()
	if ctx.Err() != nil {
		t.Fatal("fresh context already cancelled")
	}
	stop()
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Errorf("after stop, ctx.Err() = %v, want context.Canceled", ctx.Err())
	}
}

func TestPeakRSS(t *testing.T) {
	b := PeakRSSBytes()
	s := PeakRSS()
	if b <= 0 {
		if s != "unknown" {
			t.Errorf("PeakRSS() = %q with no reading, want \"unknown\"", s)
		}
		return
	}
	if !strings.HasSuffix(s, "iB") {
		t.Errorf("PeakRSS() = %q, want a KiB/MiB/GiB figure", s)
	}
}
