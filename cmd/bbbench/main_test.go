package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nwca/broadband/internal/bench"
)

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	specs, err := bench.Select("full")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(stdout.String(), "\n"); got != len(specs) {
		t.Errorf("-list printed %d lines, want %d", got, len(specs))
	}
}

// TestRunRefusesBeforeMeasuring covers the failures bbbench reports
// before any benchmark runs; every one is a harness error (exit 2).
func TestRunRefusesBeforeMeasuring(t *testing.T) {
	existing := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := os.WriteFile(existing, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"bad flag", []string{"-bogus"}, "flag provided but not defined"},
		{"unknown set", []string{"-set", "nightly"}, "bbbench: "},
		{"unknown spec", []string{"-only", "no_such_spec"}, `no spec named "no_such_spec"`},
		{"bad benchtime", []string{"-benchtime", "soon"}, "bad -benchtime"},
		{"existing output", []string{"-baseline", "auto", "-out", existing}, "already exists"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("stderr lacks %q:\n%s", c.want, stderr.String())
			}
		})
	}
}
