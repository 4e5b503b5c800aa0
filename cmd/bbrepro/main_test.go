package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	broadband "github.com/nwca/broadband"
)

// smallWorld is the smallest world on which every artifact computes.
var smallWorld = []string{"-seed", "20140705", "-users", "600", "-fcc", "150", "-days", "1", "-switches", "80", "-min-per-country", "8"}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	want := len(broadband.Experiments()) + len(broadband.ExtensionExperiments())
	if got := strings.Count(stdout.String(), "\n"); got != want {
		t.Errorf("-list printed %d lines, want %d", got, want)
	}
}

func TestRunOnly(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := append([]string{"-only", "Table 1"}, smallWorld...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 1") {
		t.Errorf("stdout lacks the artifact:\n%s", stdout.String())
	}
}

// TestRunVerifyDrifts drives the golden gate on a saved small world: every
// artifact computes, none matches the canonical-world goldens, so the run
// prints all of them, writes the drift report and exits 1.
func TestRunVerifyDrifts(t *testing.T) {
	var stdout, stderr bytes.Buffer
	dir := t.TempDir()
	w, err := broadband.BuildWorld(broadband.WorldConfig{Seed: 20140705, Users: 600, FCCUsers: 150, Days: 1, SwitchTarget: 80, MinPerCountry: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := broadband.SaveDataset(&w.Data, dir, broadband.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(t.TempDir(), "drift.json")
	args := []string{"-data", dir, "-seed", "20140705", "-verify", "-golden", "../../testdata/golden", "-manifest", "", "-report", report}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if n := strings.Count(stdout.String(), "==="); n < len(broadband.Experiments()) {
		t.Errorf("printed %d report headers, want every artifact", n)
	}
	if !strings.Contains(stderr.String(), "drifted or violated assertions") {
		t.Errorf("stderr lacks the verify verdict:\n%s", stderr.String())
	}
	if _, err := os.Stat(report); err != nil {
		t.Errorf("drift report not written: %v", err)
	}
}

func TestRunExitCodes(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"report without verify", []string{"-report", "x.json"}, 2},
		{"bad flag", []string{"-bogus"}, 2},
		{"missing data", []string{"-data", "no-such-dir"}, 1},
		{"unknown artifact", append([]string{"-only", "Table 99"}, smallWorld...), 1},
		{"bad world", []string{"-users", "-1"}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
		})
	}
}
