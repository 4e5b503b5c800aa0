package bench

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func touch(t *testing.T, dir, name string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLatestBaselineNumericOrder pins the double-digit regression this
// helper exists to prevent: with baselines {2, 6, 10} a lexical sort picks
// BENCH_6.json (since "BENCH_10" < "BENCH_6" as strings); the numeric sort
// must pick BENCH_10.json.
func TestLatestBaselineNumericOrder(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_6.json", "BENCH_10.json"} {
		touch(t, dir, name)
	}
	got, err := LatestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_10.json"); got != want {
		t.Errorf("LatestBaseline = %q, want %q", got, want)
	}
}

func TestLatestBaselineIgnoresNonBaselines(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	for _, name := range []string{
		"BENCH_3.json", "bench-ci.json", "BENCH_X.json", "BENCH_12.json.bak",
		"BENCH_.json", "BENCH_4.JSON", "notBENCH_9.json",
	} {
		touch(t, dir, name)
	}
	if err := os.Mkdir(filepath.Join(dir, "BENCH_99.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	got, err := LatestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_3.json"); got != want {
		t.Errorf("LatestBaseline = %q, want %q (everything else is not a baseline)", got, want)
	}
}

func TestLatestBaselineEmpty(t *testing.T) {
	t.Parallel()
	got, err := LatestBaseline(t.TempDir())
	if err != nil || got != "" {
		t.Errorf("LatestBaseline(empty) = %q, %v; want \"\", nil", got, err)
	}
	if _, err := LatestBaseline(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("LatestBaseline of a missing dir should error")
	}
}

// TestNextBaseline pins bbbench's default -out: the index after the newest
// committed trajectory (numerically), so a flag-less run never lands on a
// file that is already history.
func TestNextBaseline(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name  string
		files []string
		want  string
	}{
		{"double digits", []string{"BENCH_6.json", "BENCH_10.json"}, "BENCH_11.json"},
		{"empty", nil, "BENCH_1.json"},
		{"non-baselines only", []string{"bench-ci.json", "BENCH_X.json"}, "BENCH_1.json"},
	} {
		dir := t.TempDir()
		for _, name := range tc.files {
			touch(t, dir, name)
		}
		got, err := NextBaseline(dir)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := filepath.Join(dir, tc.want); got != want {
			t.Errorf("%s: NextBaseline = %q, want %q", tc.name, got, want)
		}
	}
	if _, err := NextBaseline(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("NextBaseline of a missing dir should error")
	}
}

// TestWriteNewRefusesOverwrite: a trajectory write never replaces an
// existing file, and the refused write leaves that file untouched.
func TestWriteNewRefusesOverwrite(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_9.json")
	touch(t, dir, "BENCH_9.json")
	traj := NewTrajectory(time.Unix(0, 0))
	if err := traj.WriteNew(path); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("WriteNew over an existing file = %v, want fs.ErrExist", err)
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw) != "{}" {
		t.Fatalf("existing file changed: %q, %v", raw, err)
	}

	fresh := filepath.Join(dir, "BENCH_10.json")
	if err := traj.WriteNew(fresh); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(fresh)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ReadTrajectory(f); err != nil {
		t.Fatalf("written trajectory does not read back: %v", err)
	}
}
