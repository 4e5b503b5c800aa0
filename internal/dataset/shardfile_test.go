package dataset

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/unit"
)

// shardTestUsers builds a small valid panel (IDs 1..n) for shard-layout
// tests; values only need to round-trip, not satisfy Dataset.Validate.
func shardTestUsers(n int) []User {
	users := make([]User, n)
	for i := range users {
		users[i] = User{
			ID: int64(i + 1), Country: "US", Year: 2013, ISP: "isp",
			NetworkKey: "isp/net0/city0",
			PlanDown:   unit.MbpsOf(10), PlanUp: unit.MbpsOf(1),
			PlanPrice: unit.USD(40), PlanTech: market.Cable,
			Capacity: unit.MbpsOf(float64(8 + i)), UpCapacity: unit.MbpsOf(1),
			RTT: 0.03, Loss: unit.LossFromPercent(0.1),
			Usage: UsageSummary{
				Mean: unit.MbpsOf(1), Peak: unit.MbpsOf(4),
				MeanNoBT: unit.MbpsOf(1), PeakNoBT: unit.MbpsOf(3),
			},
		}
	}
	return users
}

// writeShardSet splits users across total shard files under dir.
func writeShardSet(t *testing.T, dir string, users []User, total int, gz bool) {
	t.Helper()
	for i := 0; i < total; i++ {
		lo, hi := i*len(users)/total, (i+1)*len(users)/total
		_, err := WriteUserShardCtx(context.Background(), dir, i, total, gz, func(w *Writer[User]) error {
			for j := lo; j < hi; j++ {
				if err := w.Write(&users[j]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func readAll(t *testing.T, src UserSource) []User {
	t.Helper()
	var out []User
	var u User
	for {
		switch err := src.Read(&u); err {
		case nil:
			out = append(out, u)
		case io.EOF:
			return out
		default:
			t.Fatal(err)
		}
	}
}

func TestUserStreamOverShards(t *testing.T) {
	t.Parallel()
	users := shardTestUsers(11)
	for _, gz := range []bool{false, true} {
		dir := t.TempDir()
		// total=4 over 11 users: uneven shard sizes exercise the split.
		writeShardSet(t, dir, users, 4, gz)
		us, err := StreamUsersDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := readAll(t, us)
		if err := us.Close(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(users) {
			t.Fatalf("gz=%v: read %d users, want %d", gz, len(got), len(users))
		}
		for i := range got {
			if got[i] != users[i] {
				t.Fatalf("gz=%v: user %d differs after shard round-trip:\n got %+v\nwant %+v", gz, i, got[i], users[i])
			}
		}
	}
}

func TestUserStreamSkipsEmptyShards(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	users := shardTestUsers(2)
	// 5 shards over 2 users: the tail shards are header-only files.
	writeShardSet(t, dir, users, 5, false)
	for i := 0; i < 5; i++ {
		if _, err := os.Stat(filepath.Join(dir, UserShardName(i, 5, false))); err != nil {
			t.Fatalf("shard %d missing: %v (empty shards must still exist)", i, err)
		}
	}
	us, err := StreamUsersDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()
	got := readAll(t, us)
	if len(got) != 2 {
		t.Fatalf("read %d users through empty shards, want 2", len(got))
	}
}

func TestMonolithicFileWinsOverShards(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	writeShardSet(t, dir, shardTestUsers(6), 2, false)
	mono := shardTestUsers(3)
	if err := writeTableCtx(context.Background(), filepath.Join(dir, "users.csv"), false, func(w io.Writer) error {
		return WriteAll(w, mono, 1)
	}); err != nil {
		t.Fatal(err)
	}
	us, err := StreamUsersDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()
	if got := readAll(t, us); len(got) != 3 {
		t.Fatalf("read %d users, want the 3 from users.csv (monolithic file wins)", len(got))
	}
}

func TestFindUserShardsRejectsBrokenSets(t *testing.T) {
	t.Parallel()

	t.Run("none", func(t *testing.T) {
		t.Parallel()
		_, err := FindUserShards(t.TempDir())
		if !errors.Is(err, os.ErrNotExist) {
			t.Errorf("err = %v, want ErrNotExist for an empty dir", err)
		}
	})
	t.Run("missing-index", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		writeShardSet(t, dir, shardTestUsers(6), 3, false)
		if err := os.Remove(filepath.Join(dir, UserShardName(1, 3, false))); err != nil {
			t.Fatal(err)
		}
		if _, err := FindUserShards(dir); err == nil {
			t.Error("incomplete shard set loaded without error")
		}
		if _, err := StreamUsersDir(dir); err == nil {
			t.Error("StreamUsersDir over incomplete set succeeded")
		}
	})
	t.Run("mixed-totals", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		writeShardSet(t, dir, shardTestUsers(4), 2, false)
		writeShardSet(t, dir, shardTestUsers(4), 3, false)
		if _, err := FindUserShards(dir); err == nil {
			t.Error("mixed shard totals loaded without error")
		}
	})
	t.Run("bad-range", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		for _, c := range []struct{ i, n int }{{-1, 2}, {2, 2}, {0, 0}} {
			if _, err := WriteUserShardCtx(context.Background(), dir, c.i, c.n, false, func(*Writer[User]) error { return nil }); err == nil {
				t.Errorf("WriteUserShardCtx(%d, %d) accepted an out-of-range index", c.i, c.n)
			}
		}
	})
}

// TestLoadDirReadsShardedUsers pins layout transparency: a directory with
// sharded users plus the usual switches/plans loads through LoadDir exactly
// like its monolithic twin.
func TestLoadDirReadsShardedUsers(t *testing.T) {
	t.Parallel()
	d := sampleDataset()
	for _, mbps := range []float64{1, 2, 4, 8, 16} {
		d.Plans = append(d.Plans,
			planFor("US", mbps, 20+0.55*(mbps-1)),
			planFor("JP", mbps, 21+0.08*(mbps-1)),
		)
	}
	monoDir, shardDir := t.TempDir(), t.TempDir()
	if err := d.SaveDir(monoDir); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveDir(shardDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(shardDir, "users.csv")); err != nil {
		t.Fatal(err)
	}
	writeShardSet(t, shardDir, d.Users, 3, false)

	mono, err := LoadDir(monoDir)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := LoadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mono.Users) != len(sharded.Users) {
		t.Fatalf("sharded load has %d users, monolithic %d", len(sharded.Users), len(mono.Users))
	}
	for i := range mono.Users {
		if mono.Users[i] != sharded.Users[i] {
			t.Fatalf("user %d differs between layouts", i)
		}
	}
}
