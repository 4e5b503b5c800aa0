//go:build unix

package main

import (
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRunDrainsOnSIGTERM serves on a loopback port, sends the process
// SIGTERM and checks the graceful path: both drain log lines, then exit
// 130 from run, with its deferred cleanup done.
func TestRunDrainsOnSIGTERM(t *testing.T) {
	var logs syncBuffer
	done := make(chan int, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-drain", "2s"}, &logs) }()

	// The listening line is logged after the signal handler is installed,
	// so the SIGTERM below cannot reach the default (killing) handler.
	deadline := time.After(10 * time.Second)
	for !strings.Contains(logs.String(), "listening on") {
		select {
		case code := <-done:
			t.Fatalf("exited early with %d:\n%s", code, logs.String())
		case <-deadline:
			t.Fatalf("server never listened:\n%s", logs.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 130 {
			t.Errorf("exit %d, want 130", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no exit after SIGTERM")
	}
	for _, want := range []string{"signal received; draining", "drained; exiting", "bbserve: interrupted"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logs.String())
		}
	}
}
