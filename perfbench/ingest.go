package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/chaos"
	"github.com/nwca/broadband/internal/golden"
	"github.com/nwca/broadband/internal/synth"
)

// panelScale is one ingest panel: about 5.0k user rows.
var panelScale = synth.Config{Users: 2000, FCCUsers: 500, Days: 2, SwitchTarget: 400, MinPerCountry: 10}

const (
	// panelBases is how many panels are generated; each is uploaded clean
	// and in perturbed variants.
	panelBases = 2
	// dirtyVariants per base are perturbed at dirtyRate, so quarantine
	// drops rows; one variant per base is perturbed at overRate, past the
	// 5% budget, where a 422 is the expected answer.
	dirtyVariants = 4
	dirtyRate     = 0.01
	overRate      = 0.12
	// ingestNames is how many dataset names uploads rotate over, so older
	// versions are replaced and collected.
	ingestNames = 4
	// uploadRate is the open-loop upload rate; uploadRequests are sent at
	// it, enough for ten beyond the p90.
	uploadRate     = 5.0
	uploadRequests = 100
	// firstQuery is the light artifact read after every accepted upload.
	firstQuery = "Fig. 1"
)

// ingestMix: clean uploads, uploads at dirtyRate, uploads past the budget.
var ingestMix = []float64{0.45, 0.45, 0.10}

// panel is one prepared upload and what the server must answer.
type panel struct {
	body *Body
	want int    // 201 or 422
	hash string // HashDataset of the robust load, when accepted
	rows int    // user rows kept
	read int    // rows read, all tables
	bad  int    // rows quarantined
	d    *broadband.Dataset
}

// ingestClient sends uploads and their first queries and checks both.
type ingestClient struct {
	srv    *Server
	tr     *Tracer
	panels [][]*panel // by mix class
	names  [ingestNames]sync.Mutex

	mu     sync.Mutex
	first  []time.Duration // first-query latencies
	checks []firstCheck
}

type firstCheck struct {
	p    *panel
	seed uint64
	sum  [32]byte
}

// upload sends one panel and, when it is accepted, one read of the new
// hash. The name is held for both, so the read sees this upload.
func (c *ingestClient) upload(ctx context.Context, a Arrival, phase int, traced bool) Outcome {
	ps := c.panels[a.Class]
	p := ps[a.Nth%len(ps)]
	n := a.Seq % ingestNames
	name := fmt.Sprintf("panel-%d", n)
	c.names[n].Lock()
	defer c.names[n].Unlock()
	t0 := time.Now()
	rep, err := c.srv.Upload(ctx, name, p.body)
	t1 := time.Now()
	if traced {
		c.tr.Record("serve.upload", 0, a.Seq+1, t0, t1)
	}
	o := Outcome{Status: rep.Status, Err: err, Want: p.want}
	if err != nil || rep.Status != p.want || p.want != 201 {
		if err == nil && rep.Status != p.want {
			o.Err = fmt.Errorf("upload %d: status %d, want %d: %.200s", a.Seq, rep.Status, p.want, rep.Body)
		}
		return o
	}
	var info struct {
		Hash            string
		Users           int
		RowsQuarantined int `json:"rows_quarantined"`
	}
	if err := json.Unmarshal(rep.Body, &info); err != nil {
		o.Err = fmt.Errorf("upload %d: %w", a.Seq, err)
		return o
	}
	if info.Hash != p.hash || info.Users != p.rows || info.RowsQuarantined != p.bad {
		o.Err = fmt.Errorf("upload %d: stored %.12s with %d users, %d quarantined; robust load gives %.12s, %d, %d",
			a.Seq, info.Hash, info.Users, info.RowsQuarantined, p.hash, p.rows, p.bad)
		return o
	}
	o.Rows = p.rows

	seed := uint64(coldSeedBase*(phase+1) + a.Seq)
	g, err := c.srv.Get(ctx, fmt.Sprintf("/v1/datasets/%s/artifacts/%s?seed=%d", name, golden.Slug(firstQuery), seed))
	t2 := time.Now()
	if traced {
		c.tr.Record("serve.cold", 0, a.Seq+1, t1, t2)
	}
	switch {
	case err != nil:
		o.Err = err
	case g.Status != 200:
		o.Err = fmt.Errorf("first query after upload %d: status %d", a.Seq, g.Status)
	case g.Hash != p.hash:
		o.Err = fmt.Errorf("first query after upload %d: X-Dataset-Hash %.12s, uploaded %.12s", a.Seq, g.Hash, p.hash)
	}
	c.mu.Lock()
	c.first = append(c.first, t2.Sub(t1))
	if o.Err == nil {
		c.checks = append(c.checks, firstCheck{p, seed, sha256.Sum256(g.Body)})
	}
	c.mu.Unlock()
	return o
}

// preparePanels generates the panels and their variants and works out
// the answer each must get: the robust load of the same files gives the
// hash and row counts of an accepted upload, and a budget error a 422.
// It also returns the first panel's world, for the layer probes.
func preparePanels(ctx context.Context, env *Env) ([][]*panel, *synth.World, error) {
	out := make([][]*panel, len(ingestMix))
	var first *synth.World
	for b := 0; b < panelBases; b++ {
		cfg := panelScale
		cfg.Seed = env.Seed*uint64(panelBases) + uint64(b)
		w, err := build(ctx, env.Tr, cfg, 0, 0)
		if err != nil {
			return nil, nil, err
		}
		if first == nil {
			first = w
		}
		base := filepath.Join(env.Work, fmt.Sprintf("panel-%d", b))
		if err := save(ctx, env.Tr, &w.Data, base, 0, 0); err != nil {
			return nil, nil, err
		}
		variants := []struct {
			class int
			rate  float64
		}{{0, 0}, {2, overRate}}
		for k := 0; k < dirtyVariants; k++ {
			variants = append(variants, struct {
				class int
				rate  float64
			}{1, dirtyRate})
		}
		for k, v := range variants {
			dir := base
			if v.rate > 0 {
				dir = fmt.Sprintf("%s-v%d", base, k)
				if err := copyTables(base, dir); err != nil {
					return nil, nil, err
				}
				in := chaos.New(chaos.Config{Seed: cfg.Seed*100 + uint64(k), Rate: v.rate})
				if _, err := in.PerturbDir(dir); err != nil {
					return nil, nil, fmt.Errorf("perturb panel: %w", err)
				}
			}
			p, err := preparePanel(env, dir)
			if err != nil {
				return nil, nil, err
			}
			out[v.class] = append(out[v.class], p)
		}
	}
	for c, ps := range out {
		for _, p := range ps {
			if (p.want == 422) != (c == 2) {
				return nil, nil, fmt.Errorf("panel class %d: robust load answers %d; the mix needs every over-budget panel refused and no other", c, p.want)
			}
		}
	}
	return out, first, nil
}

func preparePanel(env *Env, dir string) (*panel, error) {
	body, err := NewBody(dir)
	if err != nil {
		return nil, err
	}
	p := &panel{body: body, want: 201}
	d, rep, err := loadRobust(env.Tr, dir, 0, 0)
	var budget *broadband.BudgetError
	switch {
	case errors.As(err, &budget):
		p.want = 422
		return p, nil
	case err != nil:
		return nil, err
	}
	if p.hash, err = hash(env.Tr, d, 0); err != nil {
		return nil, err
	}
	p.rows, p.read, p.bad, p.d = len(d.Users), rep.RowsRead, len(rep.Diags), d
	return p, nil
}

func copyTables(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	for _, t := range chaos.Tables {
		src, err := os.Open(filepath.Join(from, t))
		if err != nil {
			return err
		}
		dst, err := os.Create(filepath.Join(to, t))
		if err != nil {
			src.Close()
			return err
		}
		_, err = io.Copy(dst, src)
		src.Close()
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runIngest is the open-loop upload workload against bbserve on disk.
func runIngest(ctx context.Context, env *Env) (*Run, error) {
	r := newRun()
	tr := env.Tr
	panels, w0, err := preparePanels(ctx, env)
	if err != nil {
		return nil, err
	}
	c := &ingestClient{tr: tr, panels: panels}
	// Set-up: launch and one clean upload to every name, so the measured
	// uploads replace existing versions.
	srv, setup, setupWall, err := SetUp(ctx, env, func(srv *Server) {
		c.srv = srv
		for n := 0; n < ingestNames; n++ {
			p := panels[0][n%len(panels[0])]
			rep, err := srv.Upload(ctx, fmt.Sprintf("panel-%d", n), p.body)
			r.Check(uploadCheck(rep, err, p.hash))
		}
	})
	if err != nil {
		return nil, err
	}
	defer srv.Stop()

	c.srv.StartPolling(50 * time.Millisecond)
	cpu0, err := c.srv.CPU()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sched := Schedule(env.Seed, 1, uploadRate, uploadRequests, ingestMix)
	ref := OpenLoop(ctx, sched, 2, sched[len(sched)-1].Due+refGrace, func(ctx context.Context, a Arrival) Outcome {
		return c.upload(ctx, a, 1, tr != nil && a.Seq%2 == 0)
	})
	cpu1, err := c.srv.CPU()
	if err != nil {
		return nil, err
	}
	lat, late := latencies(r, ref)
	p50 := Quantile(append([]float64(nil), lat...), 0.5)
	q, tail, ok := Tail(lat)
	if !ok || q != 0.9 {
		return nil, fmt.Errorf("upload phase: %d uploads name the p%.0f, want the p90", len(lat), q*100)
	}
	c.mu.Lock()
	firstP50 := Median(msAll(c.first))
	c.mu.Unlock()

	// Capacity: uploads back to back over both connections for the
	// measured time the open loop left.
	sched = Schedule(env.Seed, 2, uploadRate, 1<<12, ingestMix)
	outs, took := ClosedLoop(ctx, sched, 2, max(3*time.Second, env.Seconds-time.Since(start)), func(ctx context.Context, a Arrival) Outcome {
		return c.upload(ctx, a, 2, false)
	})
	rows := 0
	for _, o := range outs {
		r.Check(outcomeErr(o))
		if !o.Failed() {
			rows += o.Rows
		}
	}
	c.srv.StopPolling()
	inflightMax, shed := c.srv.Health()
	rss, err := c.srv.PeakRSSMB()
	if err != nil {
		return nil, err
	}
	c.srv.Stop()

	// The first queries' bodies against the artifact computed in process.
	for _, fc := range c.checks {
		b, err := runOne(nil, firstQuery, fc.p.d, fc.seed)
		switch {
		case err != nil:
			r.Check(err)
		case sha256.Sum256(b) != fc.sum:
			r.Check(fmt.Errorf("first query %s?seed=%d: served bytes differ from the artifact computed in process", golden.Slug(firstQuery), fc.seed))
		default:
			r.Check(nil)
		}
	}

	accepted := 0
	for _, x := range ref {
		if x.Status == 201 {
			accepted++
		}
	}
	r.E2E.Set("setup_s", setup, "s")
	r.E2E.Set("peak_rss_mb", rss, "MiB")
	r.E2E.Set("cpu_ms_per_op", ms(cpu1-cpu0)/float64(len(ref)), "ms")
	r.Extra.Set("setup_wall_s", setupWall, "s")
	r.Extra.Set("upload_p50_ms", p50, "ms")
	r.Extra.Set("upload_p90_ms", tail, "ms")
	r.Extra.Set("ingest_rows_per_s", float64(rows)/took.Seconds(), "1/s")
	r.Extra.Set("first_query_p50_ms", firstP50, "ms")
	r.Extra.Set("ingest.accepted", float64(accepted), "count")
	r.Extra.Set("ingest.panel_rows", float64(panels[0][0].rows), "count")
	r.Extra.Set("loadgen.late_p99_ms", lateTail(late), "ms")
	r.Extra.Set("serve.shed", float64(shed), "count")
	r.Extra.Set("serve.inflight_max", float64(inflightMax), "count")
	if tr != nil {
		p := panels[0][0]
		if err := probeLayers(ctx, env, w0, panelScale.Days, p.d, env.Seed*panelBases, r); err != nil {
			return nil, err
		}
		layerMetrics(env, r)
		requestMetrics(tr, r)
		r.Layers.Set("trace.overhead_ratio", overheadRatio(ref), "ratio")
		var bad []float64
		for _, p := range panels[1] {
			bad = append(bad, float64(p.bad))
		}
		r.Layers.Set("dataset.rows", float64(p.read), "count")
		r.Layers.Set("dataset.rows_quarantined", Median(bad), "count")
		r.Layers.Set("serve.shed", float64(shed), "count")
		r.Layers.Set("serve.inflight_max", float64(inflightMax), "count")
	}
	return r, nil
}

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
