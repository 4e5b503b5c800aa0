package synth

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/par"
)

// Out-of-core world generation (DESIGN.md §8). BuildSharded writes the user
// panel as N shard files through the streaming CSV writers instead of
// materializing []dataset.User, so resident memory is bounded by the world
// frame (catalogs, market summaries) plus the switch-candidate pool —
// independent of the user count. This is what unlocks
// `bbgen -users 10000000 -shards N` on a laptop.

// switchPoolFactor sizes the in-memory switch-candidate pool relative to
// SwitchTarget. Upgrade acceptance (utilization pressure × catalog fit) runs
// a few percent, so 32× the target keeps the panel full in practice while
// the pool stays thousands of users, not millions.
const switchPoolFactor = 32

// ShardSpec describes the on-disk layout of an out-of-core build.
type ShardSpec struct {
	// Dir receives the shard files plus switches.csv and plans.csv.
	Dir string
	// Shards is the number of user shard files (defaults to 1). Shard i
	// covers the slot range [i·total/Shards, (i+1)·total/Shards); a shard
	// past the population is a valid header-only file.
	Shards int
	// Gzip writes .csv.gz transport for every table.
	Gzip bool
}

// ShardReport summarizes an out-of-core build.
type ShardReport struct {
	Dir        string
	ShardFiles []string
	// Users is the number of subscribers written across all shards.
	Users int
	// Skipped counts households per country that exhausted every
	// affordability redraw (same meaning as World.Skipped).
	Skipped map[string]int
	// PoolUsers is how many switch candidates were retained in memory.
	PoolUsers int
	Switches  int
	Plans     int
}

// SkippedHouseholds mirrors World.SkippedHouseholds for sharded builds.
func (r *ShardReport) SkippedHouseholds() int {
	total := 0
	for _, n := range r.Skipped {
		total += n
	}
	return total
}

// BuildSharded generates a world directly to disk. Users stream to shard
// files in canonical slot order — shard contents are byte-identical for
// every GOMAXPROCS, and concatenating the shard bodies in index order
// yields exactly the monolithic users.csv rows of BuildCtx with the same
// config. The switch panel draws from a bounded candidate pool: the users
// produced by the first switchPoolFactor·SwitchTarget primary-year Dasu
// slots, in slot order — a pure function of the layout, so the panel is
// identical for every shard count and GOMAXPROCS (and identical to the
// in-core build whenever the pool covers all candidates). Whole-panel
// validation is the in-core build's job; sharded output is gated by the
// per-row invariants of generation itself.
func BuildSharded(ctx context.Context, cfg Config, spec ShardSpec) (*ShardReport, error) {
	if spec.Dir == "" {
		return nil, fmt.Errorf("synth: sharded build needs an output directory")
	}
	if spec.Shards <= 0 {
		spec.Shards = 1
	}
	gen, err := newGenerator(ctx, cfg)
	if err != nil {
		return nil, err
	}
	cfg = gen.cfg
	lay, err := gen.layout()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
		return nil, err
	}
	poolK := 0
	if cfg.SwitchTarget > 0 {
		poolK = lay.primaryDasu
		if k := switchPoolFactor * cfg.SwitchTarget; k < poolK {
			poolK = k
		}
	}

	// Each shard is generated sequentially by one worker and written through
	// one streaming writer; shards fan out across the pool. Per-shard slices
	// keep the workers share-nothing until the join.
	type poolEntry struct {
		user  dataset.User
		truth GroundTruth
	}
	paths := make([]string, spec.Shards)
	counts := make([]int, spec.Shards)
	skipped := make([]map[string]int, spec.Shards)
	pools := make([][]poolEntry, spec.Shards)
	err = par.ForNCtx(ctx, runtime.GOMAXPROCS(0), spec.Shards, func(s int) error {
		lo, hi := s*lay.total/spec.Shards, (s+1)*lay.total/spec.Shards
		skipped[s] = make(map[string]int)
		path, err := dataset.WriteUserShardCtx(ctx, spec.Dir, s, spec.Shards, spec.Gzip, func(uw *dataset.Writer[dataset.User]) error {
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				r, err := gen.generateSlot(lay.slot(i))
				if err != nil {
					return err
				}
				if r.user == nil {
					skipped[s][lay.find(i).prof.Country.Code]++
					continue
				}
				if err := uw.Write(r.user); err != nil {
					return err
				}
				counts[s]++
				if rank, ok := lay.primaryDasuRank(i); ok && rank < poolK {
					pools[s] = append(pools[s], poolEntry{user: *r.user, truth: r.truth})
				}
			}
			return nil
		})
		paths[s] = path
		return err
	})
	if err != nil {
		return nil, err
	}

	w := gen.world
	w.Skipped = make(map[string]int)
	users := 0
	for s := range counts {
		users += counts[s]
		for code, n := range skipped[s] {
			w.Skipped[code] += n
		}
	}
	// Shards cover increasing slot ranges, so concatenating the per-shard
	// pools restores slot order — the order upgradesFrom expects.
	var candidates []*dataset.User
	for s := range pools {
		for j := range pools[s] {
			e := &pools[s][j]
			w.Truth[e.user.ID] = e.truth
			candidates = append(candidates, &e.user)
		}
	}
	if err := gen.upgradesFrom(candidates); err != nil {
		return nil, err
	}
	opts := dataset.SaveOptions{Gzip: spec.Gzip}
	if err := dataset.SaveTableCtx(ctx, spec.Dir, opts, w.Data.Switches); err != nil {
		return nil, err
	}
	if err := dataset.SaveTableCtx(ctx, spec.Dir, opts, w.Data.Plans); err != nil {
		return nil, err
	}
	return &ShardReport{
		Dir:        spec.Dir,
		ShardFiles: paths,
		Users:      users,
		Skipped:    w.Skipped,
		PoolUsers:  len(candidates),
		Switches:   len(w.Data.Switches),
		Plans:      len(w.Data.Plans),
	}, nil
}
