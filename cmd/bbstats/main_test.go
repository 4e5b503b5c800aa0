package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	broadband "github.com/nwca/broadband"
)

// savedWorld writes a small generated world to a temporary directory.
func savedWorld(t *testing.T) string {
	t.Helper()
	w, err := broadband.BuildWorld(broadband.WorldConfig{Seed: 3, Users: 300, FCCUsers: 60, Days: 1, SwitchTarget: 40, MinPerCountry: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := broadband.SaveDataset(&w.Data, dir, broadband.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunOverview(t *testing.T) {
	dir := savedWorld(t)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-data", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("text: exit %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "end-host users") {
		t.Errorf("text overview missing its population line:\n%s", stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"-data", dir, "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("json: exit %d; stderr:\n%s", code, stderr.String())
	}
	var v struct{ Users int64 }
	if err := json.Unmarshal(stdout.Bytes(), &v); err != nil || v.Users == 0 {
		t.Errorf("json overview = %q (%v), want a non-empty population", stdout.String(), err)
	}

	// A 1 MiB budget is below any real process's peak RSS.
	stderr.Reset()
	if code := run([]string{"-data", dir, "-maxrss-mb", "1"}, &stdout, &stderr); code != 1 {
		t.Errorf("-maxrss-mb 1: exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
}

func TestRunExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-data", t.TempDir()}, &stdout, &stderr); code != 1 {
		t.Errorf("empty directory: exit %d, want 1", code)
	}
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}
