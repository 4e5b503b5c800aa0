package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/golden"
	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/serve"
	"github.com/nwca/broadband/internal/synth"
	"github.com/nwca/broadband/internal/traffic"
)

// goldenScale is the world the committed goldens were generated from, less
// its seed.
var goldenScale = synth.Config{Users: 5000, FCCUsers: 1200, SwitchTarget: 900, Days: 2, MinPerCountry: 30}

// canonicalSeed is the seed of the committed goldens.
const canonicalSeed = 20140705

// build generates a world inside a synth.build span with allocation counts.
func build(ctx context.Context, tr *Tracer, cfg synth.Config, parent, req int) (*synth.World, error) {
	sp := tr.StartMem("synth.build", parent, req)
	w, err := synth.BuildCtx(ctx, cfg)
	sp.End()
	return w, err
}

// save writes d under dir inside a dataset.save span.
func save(ctx context.Context, tr *Tracer, d *broadband.Dataset, dir string, parent, req int) error {
	sp := tr.StartMem("dataset.save", parent, req)
	err := broadband.SaveDatasetCtx(ctx, d, dir, broadband.SaveOptions{})
	sp.End()
	return err
}

// loadRobust reads dir through the quarantine inside a dataset.load_robust
// span.
func loadRobust(tr *Tracer, dir string, parent, req int) (*broadband.Dataset, *broadband.QuarantineReport, error) {
	sp := tr.StartMem("dataset.load_robust", parent, req)
	d, rep, err := broadband.LoadDatasetRobust(dir, broadband.QuarantineOptions{})
	sp.End()
	return d, rep, err
}

// hash content-addresses d the way bbserve's store does.
func hash(tr *Tracer, d *broadband.Dataset, req int) (string, error) {
	sp := tr.Start("serve.hash", 0, req)
	h, err := serve.HashDataset(d)
	sp.End()
	return h, err
}

// runOne computes one artifact in process and marshals it canonically, the
// way bbserve answers an artifact query.
func runOne(tr *Tracer, id string, d *broadband.Dataset, seed uint64) ([]byte, error) {
	sp := tr.Start("experiments."+golden.Slug(id), 0, 0)
	rep, err := broadband.Run(id, d, seed)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start("golden.marshal", 0, 0)
	b, err := golden.Marshal(rep)
	sp.End()
	return b, err
}

// probeLayers calls the layers a workload's own path does not reach, so a
// traced run of every workload reports every per-layer metric on its own
// data: the market catalog of the world's seed, a traffic replay of a
// sample of the world's users, every artifact once plus RunAll, and a
// DiskStore put and cold get. It runs after the measured phase. Probes
// are timed, not checked: an artifact a small ingest panel is too small
// for fails legitimately, and the workloads check their own outputs.
func probeLayers(ctx context.Context, env *Env, w *synth.World, days int, d *broadband.Dataset, seed uint64, r *Run) error {
	tr := env.Tr
	profiles := market.World()
	sp := tr.Start("market.catalog", 0, 0)
	cats := market.BuildAllCatalogs(profiles, randx.New(seed).Split("catalogs"))
	for _, c := range cats {
		if _, err := market.Summarize(c); err != nil {
			sp.End()
			return fmt.Errorf("market catalog: %w", err)
		}
	}
	sp.End()

	if err := replayTraffic(tr, w, days, seed, r); err != nil {
		return err
	}

	failed := 0
	sp = tr.Start("experiments.run_all", 0, 0)
	if _, err := broadband.RunAllCtx(ctx, d, seed); err != nil {
		failed++
	}
	sp.End()
	for _, e := range broadband.Experiments() {
		if _, err := runOne(tr, e.ID, d, seed); err != nil {
			failed++
		}
	}
	r.Extra.Set("probe.artifact_errors", float64(failed), "count")

	dir := filepath.Join(env.Work, "probe-store")
	defer os.RemoveAll(dir)
	st, err := serve.NewDiskStore(dir)
	if err != nil {
		return err
	}
	sp = tr.Start("serve.store_put", 0, 0)
	h, err := st.Put("probe", d, nil)
	sp.End()
	if err != nil {
		return fmt.Errorf("DiskStore.Put: %w", err)
	}
	// A second store over the same root has no in-memory entry, so Get
	// reads CURRENT and loads the tables from disk.
	cold, err := serve.NewDiskStore(dir)
	if err != nil {
		return err
	}
	sp = tr.Start("serve.store_get", 0, 0)
	e, ok := cold.Get("probe")
	sp.End()
	if !ok || e.Hash != h {
		return fmt.Errorf("DiskStore.Get after Put: found=%v", ok)
	}
	return nil
}

// replayUsers is how many of the world's users the traffic replay runs.
const replayUsers = 150

// replayTraffic regenerates the traffic of a fixed sample of the world's
// users through traffic.Generator.Generate and Series.Summarize, using each
// user's measured capacity, RTT and loss, latent need, BitTorrent flag,
// archetype and cap, and reports the cost per user-day.
func replayTraffic(tr *Tracer, w *synth.World, days int, seed uint64, r *Run) error {
	users := w.Data.Users
	if len(users) == 0 {
		return fmt.Errorf("traffic replay: empty world")
	}
	step := max(1, len(users)/replayUsers)
	var gen, sum time.Duration
	samples, n := 0, 0
	for i := 0; i < len(users) && n < replayUsers; i += step {
		u := users[i]
		g := &traffic.Generator{
			Capacity: u.Capacity,
			Quality:  traffic.Quality{RTT: u.RTT, Loss: u.Loss},
			Profile: traffic.Profile{
				NeedMbps:         w.Truth[u.ID].NeedMbps,
				SessionsPerDay:   traffic.DefaultSessionsPerDay,
				BTUser:           u.UsesBT,
				BTSessionsPerDay: 2.5,
				Archetype:        u.Archetype,
				MonthlyCap:       u.PlanCap,
			},
		}
		mask := traffic.GatewayMask
		if u.Vantage == broadband.VantageDasu {
			mask = traffic.DasuMask
		}
		t0 := time.Now()
		series, err := g.Generate(days, randx.New(seed).SplitN("replay", i))
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("traffic replay user %d: %w", u.ID, err)
		}
		s, err := series.Summarize(mask)
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("traffic replay user %d: %w", u.ID, err)
		}
		tr.Record("traffic.generate", 0, 0, t0, t1)
		tr.Record("traffic.summarize", 0, 0, t1, t2)
		gen, sum = gen+t1.Sub(t0), sum+t2.Sub(t1)
		samples += s.Samples
		n++
	}
	userDays := float64(n * days)
	r.Layers.Set("traffic.generate_us", float64(gen)/float64(time.Microsecond)/userDays, "us")
	r.Layers.Set("traffic.summarize_us", float64(sum)/float64(time.Microsecond)/userDays, "us")
	r.Layers.Set("traffic.samples", float64(samples)/userDays, "count")
	return nil
}

// layerMetrics derives the per-layer metrics every workload reports from
// the run's spans.
func layerMetrics(env *Env, r *Run) {
	spans := env.Tr.Spans()
	by := map[string][]Span{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
	}
	med := func(name string, f func(Span) float64) float64 {
		var xs []float64
		for _, s := range by[name] {
			xs = append(xs, f(s))
		}
		return Median(xs)
	}
	dur := func(s Span) float64 { return ms(s.Dur()) }
	mib := func(s Span) float64 { return float64(s.AllocBytes) / (1 << 20) }
	set := func(name string, v float64, unit string) { r.Layers.Set(name, v, unit) }

	set("market.catalog_ms", med("market.catalog", dur), "ms")
	set("synth.build_ms", med("synth.build", dur), "ms")
	set("synth.alloc_mb", med("synth.build", mib), "MiB")
	set("synth.mallocs", med("synth.build", func(s Span) float64 { return float64(s.Mallocs) }), "count")
	set("dataset.save_ms", med("dataset.save", dur), "ms")
	set("dataset.load_robust_ms", med("dataset.load_robust", dur), "ms")
	set("dataset.alloc_mb", med("dataset.save", mib)+med("dataset.load_robust", mib), "MiB")
	set("experiments.run_all_ms", med("experiments.run_all", dur), "ms")
	for _, e := range broadband.Experiments() {
		slug := golden.Slug(e.ID)
		set("experiments."+slug+"_ms", med("experiments."+slug, dur), "ms")
	}
	set("golden.marshal_ms", med("golden.marshal", dur), "ms")
	set("serve.hash_ms", med("serve.hash", dur), "ms")
	set("serve.store_put_ms", med("serve.store_put", dur), "ms")
	set("serve.store_get_ms", med("serve.store_get", dur), "ms")

	self := SelfTime(spans)
	for _, l := range []string{"market", "synth", "traffic", "dataset", "experiments", "golden", "serve"} {
		set("self."+l+"_ms", ms(self[l]), "ms")
	}
	set("error_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio")
}
