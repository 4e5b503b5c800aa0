package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var tinyWorld = []string{"-users", "300", "-fcc", "60", "-days", "1", "-switches", "40", "-min-per-country", "5"}

// TestRunWritesTables generates a small world in memory and out-of-core
// and checks each run leaves every table file behind.
func TestRunWritesTables(t *testing.T) {
	for _, c := range []struct {
		name  string
		extra []string
		files []string
	}{
		{"in memory", nil, []string{"users.csv", "switches.csv", "plans.csv"}},
		{"sharded gzip", []string{"-shards", "2", "-gzip"},
			[]string{"users-00000-of-00002.csv.gz", "users-00001-of-00002.csv.gz", "switches.csv.gz", "plans.csv.gz"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			var stderr bytes.Buffer
			args := append(append([]string{"-out", dir}, tinyWorld...), c.extra...)
			if code := run(args, &stderr); code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
			}
			for _, f := range c.files {
				if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
					t.Errorf("missing %s: %v", f, err)
				}
			}
			if !strings.Contains(stderr.String(), "bbgen: wrote ") {
				t.Errorf("no summary line on stderr:\n%s", stderr.String())
			}
		})
	}
}

// TestRunExitCodes pins the failure statuses: 2 for a bad flag, 1 for a
// world the generator rejects.
func TestRunExitCodes(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"-h"}, &stderr); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	stderr.Reset()
	if code := run([]string{"-out", t.TempDir(), "-users", "-5"}, &stderr); code != 1 {
		t.Errorf("negative -users: exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.HasPrefix(stderr.String(), "bbgen: ") {
		t.Errorf("error not prefixed with the command name: %q", stderr.String())
	}
}
