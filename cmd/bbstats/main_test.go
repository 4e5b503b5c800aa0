package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/dataset"
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

// TestRunNamesFailingRow pins the stream's error location: a NaN RTT in
// the second shard of a three-shard set must fail with that shard's path
// and the row holding the NaN, not a bare "sample contains NaN", and name
// the dataset package once.
func TestRunNamesFailingRow(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		_, err := dataset.WriteUserShardCtx(t.Context(), dir, i, 3, false, func(w *dataset.Writer[dataset.User]) error {
			for j := 0; j < 4; j++ {
				u := dataset.User{ID: int64(4*i + j + 1), Country: "US", Year: 2013, Capacity: 8e6, RTT: 0.05, Loss: 0.001}
				if i == 1 && j == 2 {
					u.RTT = math.NaN()
				}
				if err := w.Write(&u); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-data", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("NaN RTT: exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	// The third data row of the shard: row 4, the header being row 1.
	want := filepath.Join(dir, dataset.UserShardName(1, 3, false)) + " row 4:"
	if msg := stderr.String(); !strings.Contains(msg, want) || !strings.Contains(msg, "NaN") {
		t.Errorf("error does not name %q and the NaN:\n%s", want, msg)
	}
	if n := strings.Count(stderr.String(), "dataset:"); n != 1 {
		t.Errorf("error names the dataset package %d times, want once:\n%s", n, stderr.String())
	}
}
