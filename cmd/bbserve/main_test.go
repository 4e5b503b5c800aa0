package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// syncBuffer collects the server's log lines while the test reads them.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRunExitCodes(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"bad flag", []string{"-bogus"}, 2},
		{"store on a file", []string{"-store", filepath.Join(file, "store")}, 1},
		{"bad listen address", []string{"-addr", "127.0.0.1:bad-port"}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stderr syncBuffer
			if code := run(c.args, &stderr); code != c.code {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
		})
	}
}
