package experiments

import (
	"fmt"
	"strings"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/stats"
)

// Streaming characterization (DESIGN.md §8): the Fig. 1 family of
// statistics — capacity, latency and loss distributions over the end-host
// panel plus the paper's headline threshold fractions — computed in one
// pass over a dataset.EachUser walk with bounded memory. Out-of-core worlds
// (10M+ users as a shard set) get their overview without ever holding the
// panel; the in-core experiments are untouched and remain the exact
// reference. Sketch-vs-exact agreement is gated by the tolerance manifest
// in testdata/stream_tolerances.json (the PR-3 manifest format).

// streamSketch is the per-metric online state: Welford moments for
// mean/stddev and a fixed-bin log ECDF for quantiles and tail fractions.
type streamSketch struct {
	mom  stats.Moments
	ecdf *stats.OnlineECDF
}

func newStreamSketch(lo, hi float64, bins int) (*streamSketch, error) {
	e, err := stats.NewOnlineECDF(lo, hi, bins)
	if err != nil {
		return nil, err
	}
	return &streamSketch{ecdf: e}, nil
}

func (s *streamSketch) add(x float64) error {
	if err := s.mom.Add(x); err != nil {
		return err
	}
	return s.ecdf.Add(x)
}

// dist summarizes the sketch into the artifact shape. Quantiles carry the
// ECDF's bin resolution (relative error one log-bin width); mean, stddev
// and the exact extremes carry no sketch error at all.
func (s *streamSketch) dist() (DistSketch, error) {
	var d DistSketch
	d.N = s.mom.N()
	if d.N == 0 {
		return d, fmt.Errorf("experiments: empty metric stream")
	}
	var err error
	if d.Mean, err = s.mom.Mean(); err != nil {
		return d, err
	}
	if d.N > 1 {
		if d.StdDev, err = s.mom.StdDev(); err != nil {
			return d, err
		}
	}
	if d.Min, err = s.mom.Min(); err != nil {
		return d, err
	}
	if d.Max, err = s.mom.Max(); err != nil {
		return d, err
	}
	for _, q := range []struct {
		p   float64
		dst *float64
	}{{0.05, &d.P05}, {0.25, &d.P25}, {0.5, &d.Median}, {0.75, &d.P75}, {0.95, &d.P95}} {
		if *q.dst, err = s.ecdf.Quantile(q.p); err != nil {
			return d, err
		}
	}
	return d, nil
}

// DistSketch is one metric's distribution summary.
type DistSketch struct {
	N                          int64
	Mean, StdDev, Min, Max     float64
	P05, P25, Median, P75, P95 float64
}

// StreamOverview is the one-pass characterization of an end-host panel:
// the online analogue of Fig. 1. Capacity is in Mbps, RTT in seconds, Loss
// a fraction; the Frac fields are the paper's headline tail shares.
type StreamOverview struct {
	Users    int64
	Capacity DistSketch
	RTT      DistSketch
	Loss     DistSketch

	FracBelow1Mbps  float64
	FracAbove30Mbps float64
	FracRTTOver500  float64
	FracLossOver1   float64
}

// streamBins sizes the fixed log ECDF of every metric. The spans (set in
// NewOverviewSketch) bracket the generator's own clamps — capacity in the
// hundreds of Mbps, RTT in [4ms, 4s], loss in [1e-5, 0.15] — with a decade
// to spare on each side; observations outside a span clamp into the
// terminal bins and the exact min/max are tracked separately, so a span
// miss degrades resolution, never correctness. 2048 log bins over ≤7
// decades keep the within-bin relative width under 0.8%.
const streamBins = 2048

// OverviewSketch is the streaming accumulator behind bbstats: one row
// resident at a time, so a 10M-user shard set costs the sketch (a few
// hundred KB), not the panel. Feed with AddUser (Dasu users only are counted, matching Fig. 1's
// population) and finish with Overview.
type OverviewSketch struct {
	capacity, rtt, loss *streamSketch
	users               int64
	below1, above30     int64
	rttOver500          int64
	lossOver1           int64
}

// NewOverviewSketch builds the streaming accumulator.
func NewOverviewSketch() (*OverviewSketch, error) {
	capacity, err := newStreamSketch(0.01, 1e4, streamBins) // Mbps
	if err != nil {
		return nil, err
	}
	rtt, err := newStreamSketch(1e-4, 10, streamBins) // seconds
	if err != nil {
		return nil, err
	}
	// Measured loss can exceed the generator's 15% draw clamp (satellite
	// multipliers compound with measurement noise), so the span runs to 1.
	loss, err := newStreamSketch(1e-6, 1, streamBins) // fraction
	if err != nil {
		return nil, err
	}
	return &OverviewSketch{capacity: capacity, rtt: rtt, loss: loss}, nil
}

// AddUser folds one user into the sketch; non-Dasu rows are ignored.
func (o *OverviewSketch) AddUser(u *dataset.User) error {
	if u.Vantage != dataset.VantageDasu {
		return nil
	}
	o.users++
	if err := o.capacity.add(float64(u.Capacity) / 1e6); err != nil {
		return err
	}
	if err := o.rtt.add(u.RTT); err != nil {
		return err
	}
	if err := o.loss.add(float64(u.Loss)); err != nil {
		return err
	}
	if u.Capacity < 1e6 {
		o.below1++
	}
	if u.Capacity > 30e6 {
		o.above30++
	}
	if u.RTT > 0.5 {
		o.rttOver500++
	}
	if u.Loss > 0.01 {
		o.lossOver1++
	}
	return nil
}

// Overview finalizes the accumulated state.
func (o *OverviewSketch) Overview() (*StreamOverview, error) {
	if o.users == 0 {
		return nil, fmt.Errorf("experiments: overview of an empty end-host panel")
	}
	out := &StreamOverview{Users: o.users}
	var err error
	if out.Capacity, err = o.capacity.dist(); err != nil {
		return nil, fmt.Errorf("experiments: capacity: %w", err)
	}
	if out.RTT, err = o.rtt.dist(); err != nil {
		return nil, fmt.Errorf("experiments: rtt: %w", err)
	}
	if out.Loss, err = o.loss.dist(); err != nil {
		return nil, fmt.Errorf("experiments: loss: %w", err)
	}
	n := float64(o.users)
	out.FracBelow1Mbps = float64(o.below1) / n
	out.FracAbove30Mbps = float64(o.above30) / n
	out.FracRTTOver500 = float64(o.rttOver500) / n
	out.FracLossOver1 = float64(o.lossOver1) / n
	return out, nil
}

// Render formats the overview for terminal output (bbstats).
func (s *StreamOverview) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Streaming overview — %d end-host users ===\n", s.Users)
	row := func(name, unit string, d DistSketch, scale float64) {
		fmt.Fprintf(&b, "  %-10s median %.4g %s (IQR %.4g–%.4g, p5 %.4g, p95 %.4g; mean %.4g ± %.4g)\n",
			name, d.Median*scale, unit, d.P25*scale, d.P75*scale, d.P05*scale, d.P95*scale, d.Mean*scale, d.StdDev*scale)
	}
	row("capacity", "Mbps", s.Capacity, 1)
	row("rtt", "ms", s.RTT, 1000)
	row("loss", "%", s.Loss, 100)
	fmt.Fprintf(&b, "  %.1f%% below 1 Mbps, %.1f%% above 30 Mbps; %.1f%% RTT over 500 ms; %.1f%% loss over 1%%\n",
		100*s.FracBelow1Mbps, 100*s.FracAbove30Mbps, 100*s.FracRTTOver500, 100*s.FracLossOver1)
	return b.String()
}
