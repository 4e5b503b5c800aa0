package synth

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/nwca/broadband/internal/dataset"
)

// The out-of-core determinism contract: for a fixed config, every shard
// file's bytes depend only on (shard index, shard count) — never on
// GOMAXPROCS — and the concatenated shard bodies are exactly the
// monolithic users.csv of the in-core build. With a pool that covers all
// candidates, the switch panel is byte-equal to the in-core one too.

// splitHeader cuts a users CSV into its header line and body bytes.
func splitHeader(t *testing.T, raw []byte) (header, body []byte) {
	t.Helper()
	i := bytes.IndexByte(raw, '\n')
	if i < 0 {
		t.Fatalf("shard file has no header line")
	}
	return raw[:i+1], raw[i+1:]
}

func TestBuildShardedMatchesMonolithic(t *testing.T) {
	cfg := Config{Seed: 11, Users: 60, FCCUsers: 15, Days: 1, SwitchTarget: 10}
	mono, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var monoCSV bytes.Buffer
	if err := dataset.WriteAll(&monoCSV, mono.Data.Users); err != nil {
		t.Fatal(err)
	}

	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, shards := range []int{1, 3, 8} {
		var first [][]byte // shard bytes at GOMAXPROCS=1
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			dir := t.TempDir()
			rep, err := BuildSharded(context.Background(), cfg, ShardSpec{Dir: dir, Shards: shards})
			if err != nil {
				t.Fatalf("shards=%d GOMAXPROCS=%d: %v", shards, procs, err)
			}
			if len(rep.ShardFiles) != shards {
				t.Fatalf("shards=%d: report lists %d files", shards, len(rep.ShardFiles))
			}
			if rep.Users != len(mono.Data.Users) {
				t.Errorf("shards=%d GOMAXPROCS=%d: wrote %d users, monolithic has %d", shards, procs, rep.Users, len(mono.Data.Users))
			}
			if !reflect.DeepEqual(rep.Skipped, mono.Skipped) {
				t.Errorf("shards=%d GOMAXPROCS=%d: skip accounting %v, monolithic %v", shards, procs, rep.Skipped, mono.Skipped)
			}

			var concat bytes.Buffer
			raws := make([][]byte, shards)
			for i, path := range rep.ShardFiles {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raws[i] = raw
				header, body := splitHeader(t, raw)
				if i == 0 {
					concat.Write(header)
				}
				concat.Write(body)
			}
			if procs == 1 {
				first = raws
			} else {
				for i := range raws {
					if !bytes.Equal(raws[i], first[i]) {
						t.Errorf("shards=%d: shard %d bytes differ between GOMAXPROCS settings", shards, i)
					}
				}
			}
			if !bytes.Equal(concat.Bytes(), monoCSV.Bytes()) {
				t.Errorf("shards=%d GOMAXPROCS=%d: concatenated shard bodies != monolithic users.csv", shards, procs)
			}

			// poolK = 32×10 ≥ the 60 primary-year Dasu slots, so the pool is
			// the full candidate set and the panel must match the in-core one.
			loaded, err := dataset.LoadDir(dir)
			if err != nil {
				t.Fatalf("shards=%d GOMAXPROCS=%d: LoadDir: %v", shards, procs, err)
			}
			if !reflect.DeepEqual(loaded.Switches, mono.Data.Switches) {
				t.Errorf("shards=%d GOMAXPROCS=%d: switch panel differs from monolithic", shards, procs)
			}
			if !reflect.DeepEqual(loaded.Plans, mono.Data.Plans) {
				t.Errorf("shards=%d GOMAXPROCS=%d: plan survey differs from monolithic", shards, procs)
			}
		}
	}
}

// TestBuildShardedEmptyTail pins the spec promise that shard counts past
// the population still yield a complete, loadable set: tail shards exist as
// header-only files and stream transparently.
func TestBuildShardedEmptyTail(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 3, Users: 2, FCCUsers: 1, Days: 1, SwitchTarget: -1, Years: []int{2013}}
	dir := t.TempDir()
	rep, err := BuildSharded(context.Background(), cfg, ShardSpec{Dir: dir, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ShardFiles) != 8 {
		t.Fatalf("report lists %d shard files, want 8", len(rep.ShardFiles))
	}
	// 2 Dasu slots + 1 gateway slot: every household is accounted for.
	if got := rep.Users + rep.SkippedHouseholds(); got != 3 {
		t.Errorf("users(%d) + skipped(%d) = %d, want the 3 configured slots", rep.Users, rep.SkippedHouseholds(), got)
	}
	for i, path := range rep.ShardFiles {
		if filepath.Base(path) != dataset.UserShardName(i, 8, false) {
			t.Errorf("shard %d written as %s", i, filepath.Base(path))
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("shard %d missing: %v", i, err)
		}
	}
	n := 0
	if err := dataset.EachUser(dir, func(*dataset.User) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != rep.Users {
		t.Errorf("streamed %d users through the tail, report says %d", n, rep.Users)
	}
	if rep.Switches != 0 {
		t.Errorf("SwitchTarget<0 produced %d switches", rep.Switches)
	}
}

// TestBuildShardedGzip checks the compressed transport end to end: shard
// set, switches and plans all written as .csv.gz and loadable via LoadDir.
func TestBuildShardedGzip(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 7, Users: 40, FCCUsers: 10, Days: 1, SwitchTarget: 5}
	dir := t.TempDir()
	rep, err := BuildSharded(context.Background(), cfg, ShardSpec{Dir: dir, Shards: 3, Gzip: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, path := range rep.ShardFiles {
		if filepath.Base(path) != dataset.UserShardName(i, 3, true) {
			t.Errorf("shard %d written as %s, want gz transport", i, filepath.Base(path))
		}
	}
	d, err := dataset.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Users) != rep.Users {
		t.Errorf("loaded %d users, report says %d", len(d.Users), rep.Users)
	}
	if rep.PoolUsers > switchPoolFactor*5 {
		t.Errorf("pool retained %d users, budget is %d", rep.PoolUsers, switchPoolFactor*5)
	}
}
