package dataset

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// Out-of-core shard layout (DESIGN.md §8): a user panel too large to
// materialize is stored as N shard files
//
//	users-00000-of-00008.csv[.gz] … users-00007-of-00008.csv[.gz]
//
// next to the usual switches.csv and plans.csv. Every shard is a complete,
// independently readable users CSV (header included), written through the
// streaming writers with constant per-row memory; concatenating the shard
// bodies in index order yields exactly the rows of the monolithic
// users.csv. Readers never see the difference: EachUser, LoadDir and
// LoadDirRobust read the user table through one loop (loadUsers) that
// falls back to the shard set when users.csv is absent.

// userShardRe matches a shard file name and captures (index, total, gz).
var userShardRe = regexp.MustCompile(`^users-(\d{5})-of-(\d{5})\.csv(\.gz)?$`)

// UserShardName returns the canonical file name of user shard i of total
// (0-based), e.g. "users-00002-of-00008.csv" or ".csv.gz".
func UserShardName(i, total int, gz bool) string {
	name := fmt.Sprintf("users-%05d-of-%05d.csv", i, total)
	if gz {
		name += ".gz"
	}
	return name
}

// FindUserShards scans dir for a complete user shard set and returns the
// shard paths in index order. It returns fs.ErrNotExist (wrapped) when dir
// holds no shards at all, and a descriptive error for an incomplete or
// inconsistent set (mixed totals, missing or duplicate indices) — a
// truncated copy must fail loudly, not load a partial panel silently.
func FindUserShards(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type shard struct {
		idx  int
		path string
	}
	var shards []shard
	total := -1
	for _, e := range entries {
		m := userShardRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		idx, _ := strconv.Atoi(m[1])
		tot, _ := strconv.Atoi(m[2])
		if total == -1 {
			total = tot
		} else if tot != total {
			return nil, fmt.Errorf("dataset: %s: mixed shard totals (%d and %d)", dir, total, tot)
		}
		shards = append(shards, shard{idx: idx, path: filepath.Join(dir, e.Name())})
	}
	if total == -1 {
		return nil, fmt.Errorf("dataset: %s: no user shards: %w", dir, os.ErrNotExist)
	}
	if total == 0 || len(shards) != total {
		return nil, fmt.Errorf("dataset: %s: incomplete shard set: have %d files, names declare %d shards", dir, len(shards), total)
	}
	sort.Slice(shards, func(a, b int) bool { return shards[a].idx < shards[b].idx })
	paths := make([]string, total)
	for want, s := range shards {
		if s.idx != want {
			return nil, fmt.Errorf("dataset: %s: shard set has duplicate or missing index %d", dir, want)
		}
		paths[want] = s.path
	}
	return paths, nil
}

// WriteUserShardCtx writes user shard i of total under dir through fn's
// streaming writer. The file is staged and renamed into place only after a
// complete write (the usual atomic-table contract), and an empty shard is
// a valid header-only CSV, so a shard set is always complete and loadable.
// It returns the final path.
func WriteUserShardCtx(ctx context.Context, dir string, i, total int, gz bool, fn func(*Writer[User]) error) (string, error) {
	if i < 0 || total <= 0 || i >= total {
		return "", fmt.Errorf("dataset: shard index %d of %d out of range", i, total)
	}
	path := filepath.Join(dir, UserShardName(i, total, gz))
	err := writeTableCtx(ctx, path, gz, func(w io.Writer) error {
		uw, err := NewWriter[User](w)
		if err != nil {
			return err
		}
		return fn(uw)
	})
	if err != nil {
		return "", fmt.Errorf("dataset: writing %s: %w", filepath.Base(path), err)
	}
	return path, nil
}

// userTableFiles lists the files holding the user table under dir:
// users.csv (or users.csv.gz) when present, else the complete shard set.
// The monolithic file wins when both layouts are present: it is what
// SaveDir writes, and a stray shard set cannot shadow it. With neither, the
// list is the missing users.csv, so opening it reports the name SaveDir
// writes.
func userTableFiles(dir string) ([]string, error) {
	path, ok := tablePath(dir, "users.csv")
	if ok {
		return []string{path}, nil
	}
	files, err := FindUserShards(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return []string{path}, nil
	}
	return files, err
}
