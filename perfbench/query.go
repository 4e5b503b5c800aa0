package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/golden"
)

// The query workload's traffic. Classes are indexes into queryMix.
const (
	classHot = iota
	classCold
	classReports
)

var (
	// queryMix: hot artifact GETs, cold GETs on never-requested seeds, and
	// full-registry /reports. Reports take 1.5% rather than 1% so that the
	// p99 falls inside the reports' latencies instead of on the step
	// between them and the slowest cold artifacts.
	queryMix   = []float64{0.885, 0.10, 0.015}
	classNames = []string{"hot", "cold", "reports"}
	// hotSeeds × every artifact is the hot set warmed during set-up;
	// /reports asks for these seeds too.
	hotSeeds = []uint64{1, 2}
)

const (
	queryDataset = "golden"
	// refRate is the fixed reference rate of query_p50_ms and
	// query_p99_ms, about a quarter of what the seed code sustains on two
	// cores. refRequests are sent at it: whole mix blocks, so every class
	// has its exact share, and exactly enough for ten beyond the p99.
	refRate     = 50.0
	refRequests = 1000
	// rungRequests is the length of one ladder rung.
	rungRequests = 400
	// ladderLimitMs bounds the median latency from the due time on each
	// ladder rung. With two connections, a percentile above the median on
	// a rung of a few seconds moves with whether two expensive requests
	// happen to coincide, not with load; the median moves only once the
	// queue grows, which is the saturation the ladder looks for.
	ladderLimitMs = 100.0
	// coldSeedBase keeps cold seeds clear of the hot seeds; each phase
	// gets its own block so a cold seed is never asked for twice.
	coldSeedBase = 1_000_000
	// rungGrace is how long requests due within a rung may still wait for
	// a connection before the generator drops them; refGrace is the same
	// for the reference phases, long enough that only a hung server drops
	// a request there.
	rungGrace = 2 * time.Second
	refGrace  = 30 * time.Second
)

// ladder is the fixed rate ladder of query_max_rps, in requests per
// second. It straddles saturation: on a two-core host the seed code meets
// the limit at the first rung and misses it between 160 and 300/s; the
// top rungs leave room for a faster server.
var ladder = []float64{100, 120, 140, 160, 180, 200, 230, 260, 300, 350, 400}

// queryClient sends the workload's requests and checks each answer.
type queryClient struct {
	srv  *Server
	tr   *Tracer
	hash string // the uploaded dataset's content hash
	ids  []string

	mu     sync.Mutex
	bodies map[string][32]byte // first body digest seen per key
	cold   []coldKey           // cold keys answered, in completion order
}

type coldKey struct {
	id   string
	seed uint64
}

func (c *queryClient) path(class int, a Arrival, phase int) (key, path string, id string, seed uint64) {
	switch class {
	case classHot:
		n := a.Nth % (len(c.ids) * len(hotSeeds))
		id, seed = c.ids[n%len(c.ids)], hotSeeds[n/len(c.ids)]
	case classCold:
		// Every artifact in turn, each on a seed never asked for before.
		id, seed = c.ids[a.Nth%len(c.ids)], uint64(coldSeedBase*(phase+1)+a.Nth)
	default:
		seed = hotSeeds[a.Nth%len(hotSeeds)]
		return fmt.Sprintf("reports?seed=%d", seed), fmt.Sprintf("/v1/datasets/%s/reports?seed=%d", queryDataset, seed), "", seed
	}
	key = fmt.Sprintf("%s?seed=%d", golden.Slug(id), seed)
	return key, fmt.Sprintf("/v1/datasets/%s/artifacts/%s", queryDataset, key), id, seed
}

// get sends one request and checks it: a 200, the uploaded dataset's hash
// on artifact answers, and the same bytes as every earlier answer for the
// key.
func (c *queryClient) get(ctx context.Context, class int, a Arrival, phase int, traced bool) Outcome {
	key, path, id, seed := c.path(class, a, phase)
	t0 := time.Now()
	rep, err := c.srv.Get(ctx, path)
	if traced {
		c.tr.Record("serve."+classNames[class], 0, a.Seq+1, t0, time.Now())
	}
	o := Outcome{Status: rep.Status, Err: err}
	if err != nil || rep.Status != 200 {
		return o
	}
	if class != classReports && rep.Hash != c.hash {
		o.Err = fmt.Errorf("%s: X-Dataset-Hash %.12s, uploaded %.12s", key, rep.Hash, c.hash)
		return o
	}
	sum := sha256.Sum256(rep.Body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.bodies[key]; !ok {
		c.bodies[key] = sum
		if class == classCold {
			c.cold = append(c.cold, coldKey{id, seed})
		}
	} else if prev != sum {
		o.Err = fmt.Errorf("%s: body differs from an earlier answer", key)
	}
	return o
}

// runQuery is the open-loop query workload against bbserve on disk.
func runQuery(ctx context.Context, env *Env) (*Run, error) {
	r := newRun()
	tr := env.Tr
	// The workload's input: the golden world, and what the server will
	// hold after the quarantine. Not part of set-up. The workload seed
	// drives the traffic; the dataset stays the same, so every seed
	// measures the same serving work.
	cfg := goldenScale
	cfg.Seed = canonicalSeed
	w, err := build(ctx, tr, cfg, 0, 0)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(env.Work, "dataset")
	if err := save(ctx, tr, &w.Data, dir, 0, 0); err != nil {
		return nil, err
	}
	body, err := NewBody(dir)
	if err != nil {
		return nil, err
	}
	local, qrep, err := loadRobust(tr, dir, 0, 0)
	if err != nil {
		return nil, err
	}
	want, err := hash(tr, local, 0)
	if err != nil {
		return nil, err
	}
	c := &queryClient{tr: tr, hash: want, bodies: map[string][32]byte{}}
	for _, e := range broadband.Experiments() {
		c.ids = append(c.ids, e.ID)
	}

	// Set-up: launch, upload, and warm the hot set over two connections.
	srv, setup, setupWall, err := SetUp(ctx, env, func(srv *Server) {
		c.srv = srv
		up, err := srv.Upload(ctx, queryDataset, body)
		r.Check(uploadCheck(up, err, want))
		var wg sync.WaitGroup
		outs := make([]Outcome, len(c.ids)*len(hotSeeds))
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := g; n < len(outs); n += 2 {
					outs[n] = c.get(ctx, classHot, Arrival{Nth: n, Seq: -1}, 0, false)
				}
			}(g)
		}
		wg.Wait()
		for _, o := range outs {
			r.Check(outcomeErr(o))
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
	sched := Schedule(env.Seed, 1, refRate, refRequests, queryMix)
	ref := OpenLoop(ctx, sched, 2, sched[len(sched)-1].Due+refGrace, func(ctx context.Context, a Arrival) Outcome {
		return c.get(ctx, a.Class, a, 1, tr != nil && a.Seq%2 == 0)
	})
	cpu1, err := c.srv.CPU()
	if err != nil {
		return nil, err
	}
	r.E2E.Set("cpu_ms_per_op", ms(cpu1-cpu0)/float64(len(ref)), "ms")
	lat, late := latencies(r, ref)
	p50 := Quantile(append([]float64(nil), lat...), 0.5)
	q, tail, ok := Tail(lat)
	if !ok || q != 0.99 {
		return nil, fmt.Errorf("reference phase: %d requests name the p%.0f, want the p99", len(lat), q*100)
	}
	r.Extra.Set("query_p50_ms", p50, "ms")
	r.Extra.Set("query_p99_ms", tail, "ms")
	r.Extra.Set("loadgen.late_p99_ms", lateTail(late), "ms")

	// Climb the ladder until a rung fails.
	var pass rung
	var fail *rung
	for k, rate := range ladder {
		sched := Schedule(env.Seed, uint64(100+k), rate, rungRequests, queryMix)
		end := sched[len(sched)-1].Due
		res := OpenLoop(ctx, sched, 2, end+rungGrace, func(ctx context.Context, a Arrival) Outcome {
			return c.get(ctx, a.Class, a, 2+k, false)
		})
		g := judgeRung(r, res, end, rate)
		r.Extra.Set(fmt.Sprintf("ladder.%03.0f_p50_ms", rate), g.p50, "ms")
		if !g.ok {
			fail = &g
			break
		}
		pass = g
	}
	rps, resolved := resolveLadder(pass, fail)
	r.Extra.Set("query_max_rps", rps, "1/s")
	r.Extra.Set("query.max_rung_rps", pass.rate, "1/s")
	if !resolved {
		fmt.Fprintf(os.Stderr, "perfbench: query ladder did not straddle saturation (highest passing rung %.0f/s)\n", pass.rate)
	}
	c.srv.StopPolling()
	inflightMax, shed := c.srv.Health()
	rss, err := c.srv.PeakRSSMB()
	if err != nil {
		return nil, err
	}
	c.srv.Stop()

	checkSample(ctx, r, c, local)

	r.E2E.Set("setup_s", setup, "s")
	r.E2E.Set("peak_rss_mb", rss, "MiB")
	r.Extra.Set("setup_wall_s", setupWall, "s")
	r.Extra.Set("serve.shed", float64(shed), "count")
	r.Extra.Set("serve.inflight_max", float64(inflightMax), "count")
	if tr != nil {
		if err := probeLayers(ctx, env, w, cfg.Days, local, cfg.Seed, r); err != nil {
			return nil, err
		}
		layerMetrics(env, r)
		requestMetrics(tr, r)
		r.Layers.Set("trace.overhead_ratio", overheadRatio(ref), "ratio")
		r.Layers.Set("dataset.rows", float64(qrep.RowsRead), "count")
		r.Layers.Set("dataset.rows_quarantined", float64(len(qrep.Diags)), "count")
		r.Layers.Set("serve.shed", float64(shed), "count")
		r.Layers.Set("serve.inflight_max", float64(inflightMax), "count")
	}
	return r, nil
}

// uploadCheck checks an upload that must be accepted with hash want.
func uploadCheck(rep Reply, err error, want string) error {
	if err != nil {
		return err
	}
	if rep.Status != 201 {
		return fmt.Errorf("upload: status %d: %s", rep.Status, rep.Body)
	}
	var info struct{ Hash string }
	if err := json.Unmarshal(rep.Body, &info); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	if info.Hash != want {
		return fmt.Errorf("upload: stored hash %.12s, HashDataset of the robust load %.12s", info.Hash, want)
	}
	return nil
}

func outcomeErr(o Outcome) error {
	if !o.Failed() {
		return nil
	}
	if o.Err != nil {
		return o.Err
	}
	return fmt.Errorf("status %d", o.Status)
}

// latencies counts every result of a measured phase as a checked
// operation and returns the latencies in ms from the due time, a failed
// or unsent request counting as infinitely late, and the generator's
// lateness in ms.
func latencies(r *Run, res []Result) (lat, late []float64) {
	for _, x := range res {
		late = append(late, ms(x.Late))
		if x.Sent < 0 {
			r.Check(fmt.Errorf("request %d: never sent", x.Seq))
			lat = append(lat, math.Inf(1))
			continue
		}
		r.Check(outcomeErr(x.Outcome))
		if x.Failed() {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(x.Latency()))
	}
	return lat, late
}

// lateTail is the generator's lateness at p99, or the highest percentile
// the sample supports.
func lateTail(late []float64) float64 {
	_, v, ok := Tail(late)
	if !ok {
		return Quantile(append([]float64(nil), late...), 1)
	}
	return v
}

// rung is one judged ladder rung.
type rung struct {
	rate, p50 float64
	ok        bool
}

// judgeRung judges one ladder rung: no request failed, the median latency
// from the due time within the limit, and no growing backlog. A backlog
// is requests due within the rung but still waiting for a connection when
// it ends; more than a second of arrivals means the queue grew. A report
// and a Table 2 miss arriving together hold both connections for about
// a third of a second, so a smaller threshold would fail rungs the
// server keeps up with.
// Answers count as checked operations; a request the generator dropped
// because the rung was over is not an error, it is why the rung fails.
func judgeRung(r *Run, res []Result, dur time.Duration, rate float64) rung {
	var lat []float64
	failed, backlog := 0, 0
	for _, x := range res {
		if x.Sent < 0 || x.Sent > dur {
			backlog++
		}
		if x.Sent < 0 {
			lat = append(lat, math.Inf(1))
			continue
		}
		r.Check(outcomeErr(x.Outcome))
		if x.Failed() {
			failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(x.Latency()))
	}
	g := rung{rate: rate, p50: Quantile(lat, 0.5)}
	g.ok = failed == 0 && float64(backlog) <= rate && g.p50 <= ladderLimitMs
	g.p50 = math.Min(g.p50, 1e6)
	return g
}

// resolveLadder returns query_max_rps: the highest passing rung, refined
// by interpolating the log of the median latency linearly in rate up to
// the limit between it and the first failing rung. The refinement keeps
// the figure from jumping a whole rung when the crossing sits near one.
// resolved is false when the ladder did not straddle saturation: the top
// rung passed, or the first failed (then the figure is half the first
// rung).
func resolveLadder(pass rung, fail *rung) (rps float64, resolved bool) {
	switch {
	case fail == nil:
		return pass.rate, false
	case pass.rate == 0:
		return ladder[0] / 2, false
	}
	frac := 0.0
	if lo, hi := math.Log(max(pass.p50, 1e-3)), math.Log(max(fail.p50, 1e-3)); fail.p50 > ladderLimitMs && hi > lo {
		frac = math.Min(1, (math.Log(ladderLimitMs)-lo)/(hi-lo))
	}
	return pass.rate + frac*(fail.rate-pass.rate), true
}

// overheadRatio compares the traced half of the reference requests with
// the untraced half: median latency of even sequence numbers over odd.
func overheadRatio(res []Result) float64 {
	var on, off []float64
	for _, x := range res {
		if x.Sent < 0 || x.Failed() {
			continue
		}
		if x.Seq%2 == 0 {
			on = append(on, ms(x.Latency()))
		} else {
			off = append(off, ms(x.Latency()))
		}
	}
	return Median(on) / Median(off)
}

// requestMetrics reports client-side request latencies per class from the
// serve.* request spans.
func requestMetrics(tr *Tracer, r *Run) {
	for _, name := range []string{"hot", "cold", "reports", "upload"} {
		xs := tr.Named("serve." + name)
		if len(xs) == 0 {
			continue
		}
		r.Extra.Set("serve."+name+"_p50_ms", Quantile(append([]float64(nil), xs...), 0.5), "ms")
		if q, v, ok := Tail(xs); ok {
			r.Extra.Set(fmt.Sprintf("serve.%s_p%.0f_ms", name, q*100), v, "ms")
		}
		r.Extra.Set("serve."+name+"_n", float64(len(xs)), "count")
	}
}

// checkSample recomputes a sample of answered keys in process and compares
// bytes: every hot key, the first cold keys, and /reports at each hot seed.
func checkSample(ctx context.Context, r *Run, c *queryClient, d *broadband.Dataset) {
	const coldSample = 10
	type want struct {
		key  string
		body func() ([]byte, error)
	}
	var keys []want
	for _, seed := range hotSeeds {
		for _, id := range c.ids {
			id, seed := id, seed
			keys = append(keys, want{fmt.Sprintf("%s?seed=%d", golden.Slug(id), seed), func() ([]byte, error) { return runOne(c.tr, id, d, seed) }})
		}
		seed := seed
		keys = append(keys, want{fmt.Sprintf("reports?seed=%d", seed), func() ([]byte, error) { return reportsBody(ctx, c.tr, d, seed) }})
	}
	for i, k := range c.cold {
		if i == coldSample {
			break
		}
		k := k
		keys = append(keys, want{fmt.Sprintf("%s?seed=%d", golden.Slug(k.id), k.seed), func() ([]byte, error) { return runOne(c.tr, k.id, d, k.seed) }})
	}
	for _, k := range keys {
		got, ok := c.bodies[k.key]
		if !ok {
			continue // never answered in this run
		}
		b, err := k.body()
		switch {
		case err != nil:
			r.Check(fmt.Errorf("%s in process: %w", k.key, err))
		case sha256.Sum256(b) != got:
			r.Check(fmt.Errorf("%s: served bytes differ from golden.Marshal(broadband.Run(...)) in process", k.key))
		default:
			r.Check(nil)
		}
	}
}

// reportsBody renders /reports the way bbserve does.
func reportsBody(ctx context.Context, tr *Tracer, d *broadband.Dataset, seed uint64) ([]byte, error) {
	sp := tr.Start("experiments.run_all", 0, 0)
	reports, err := broadband.RunAllCtx(ctx, d, seed)
	sp.End()
	if err != nil {
		return nil, err
	}
	type rendered struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Text  string `json:"text"`
	}
	out := make([]rendered, len(reports))
	for i, rep := range reports {
		out[i] = rendered{rep.ID(), rep.Title(), rep.Render()}
	}
	b, err := json.Marshal(out)
	return append(b, '\n'), err
}
