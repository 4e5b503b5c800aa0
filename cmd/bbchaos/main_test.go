package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runMainEnv makes the test binary act as bbchaos itself, so the exit
// paths run exactly as in the built command.
const runMainEnv = "BBCHAOS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestNoWorkDirLeft runs bbchaos to each kind of exit — harness failure,
// budget rejection, artifact error and success — and checks that none leaves its
// throwaway bbchaos-* work directory behind under TMPDIR.
func TestNoWorkDirLeft(t *testing.T) {
	// The tiny world populates too few capacity classes for Fig. 3, so
	// recomputing the artifacts on it fails; the small one is the smallest
	// that works.
	tiny := []string{"-users", "120", "-fcc", "30", "-days", "1", "-switches", "20", "-min-per-country", "3", "-manifest", ""}
	small := []string{"-users", "600", "-fcc", "150", "-days", "1", "-switches", "80", "-min-per-country", "8", "-manifest", ""}
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"harness failure", []string{"-data", filepath.Join(t.TempDir(), "missing")}, 2},
		{"budget tripped", append([]string{"-rate", "0.5"}, tiny...), 1},
		{"artifact error", append([]string{"-rate", "0"}, tiny...), 2},
		{"scorecard intact", append([]string{"-rate", "0.01"}, small...), 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			tmp := t.TempDir()
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1", "TMPDIR="+tmp)
			out, err := cmd.CombinedOutput()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != c.code {
				t.Fatalf("exit %d, want %d; output:\n%s", code, c.code, out)
			}
			left, err := filepath.Glob(filepath.Join(tmp, "bbchaos-*"))
			if err != nil {
				t.Fatal(err)
			}
			if len(left) > 0 {
				t.Errorf("work directory left behind: %v", left)
			}
		})
	}
}
