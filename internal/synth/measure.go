package synth

import (
	"math"

	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/netsim"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/traffic"
	"github.com/nwca/broadband/internal/unit"
)

// measurement is what the NDT-style test of one line reports.
type measurement struct {
	down, up unit.Bitrate
	rtt      float64
	webRTT   float64
	loss     unit.LossRate
}

// measure produces the user's measured service characteristics, via either
// the calibrated fast model or the packet-level simulator.
func (g *generator) measure(plan market.Plan, q traffic.Quality, rng *randx.Source) (measurement, error) {
	if g.cfg.Measurement == MeasureNDT {
		return measureNDT(plan, q, rng)
	}
	return measureFast(plan, q, rng), nil
}

// measureFast is the calibrated single-flow NDT model: throughput is the
// provisioned rate times a protocol-efficiency factor, bounded by the
// Mathis TCP-feasible rate for the line quality. Tests cross-validate it
// against measureNDT.
func measureFast(plan market.Plan, q traffic.Quality, rng *randx.Source) measurement {
	eff := 0.88 + 0.1*rng.Float64() // header overhead, ramp-up, sawtooth
	down := unit.Bitrate(float64(plan.Down) * eff)
	up := unit.Bitrate(float64(plan.Up) * (eff - 0.03))
	// The paper's "capacity" is the MAXIMUM download rate over every NDT
	// run of a 23-month panel, so the binding TCP constraint is the one of
	// the best run — roughly an eighth of the stationary loss rate (lucky
	// runs on a bursty channel see long clean stretches). Lines whose
	// best-run loss is still substantial (≥0.05%) stay Mathis-capped —
	// this is what pins measured capacity below the plan rate on
	// satellite, WiMAX and chronically lossy paths, without distorting the
	// capacity of merely-mediocre lines (which would smuggle a need-
	// selection bias into every loss-banded comparison).
	if bestLoss := q.Loss / 8; bestLoss >= 0.0005 && q.RTT > 0 {
		m := netsim.MathisThroughput(netsim.MSS, q.RTT, bestLoss)
		jitter := unit.Bitrate(0.85 + 0.3*rng.Float64())
		if lim := m * jitter; lim < down {
			down = lim
		}
		if lim := m * jitter; lim < up {
			up = lim
		}
	}
	if down < unit.KbpsOf(16) {
		down = unit.KbpsOf(16)
	}
	if up < unit.KbpsOf(8) {
		up = unit.KbpsOf(8)
	}
	rtt := q.RTT * (1 + 0.05*rng.Float64()) // probe jitter
	return measurement{
		down:   down,
		up:     up,
		rtt:    rtt,
		webRTT: webRTTFor(rtt, rng),
		loss:   measuredLoss(q.Loss, rng),
	}
}

// measureNDT runs the packet-level TCP simulation for the line. The paper's
// capacity metric is the maximum over a panel's many tests, so three
// independent runs are simulated and the best throughput kept; loss is
// averaged across runs (the panel-average semantics of NDT loss).
func measureNDT(plan market.Plan, q traffic.Quality, rng *randx.Source) (measurement, error) {
	oneWay := q.RTT / 2
	line := netsim.AccessLine{
		Down: netsim.LinkConfig{
			Rate:  plan.Down,
			Delay: oneWay,
			Loss:  lossModelFor(q.Loss, plan.Tech),
			Name:  "down",
		},
		Up: netsim.LinkConfig{
			Rate:  plan.Up,
			Delay: oneWay,
			Loss:  lossModelFor(q.Loss, plan.Tech),
			Name:  "up",
		},
	}
	var best measurement
	var lossSum float64
	var lossRuns int
	const runs = 3
	for i := 0; i < runs; i++ {
		cfg := netsim.NDTConfig{Duration: 8, Probes: 5, SkipUp: i > 0}
		res, err := netsim.RunNDT(line, cfg, rng.SplitN("ndt", i))
		if err != nil {
			return measurement{}, err
		}
		if res.DownloadRate > best.down {
			best.down = res.DownloadRate
		}
		if res.UploadRate > best.up {
			best.up = res.UploadRate
		}
		if i == 0 {
			best.rtt = res.RTT
		}
		lossSum += float64(res.ChannelLoss)
		lossRuns++
	}
	if best.down < unit.KbpsOf(16) {
		best.down = unit.KbpsOf(16)
	}
	if best.up < unit.KbpsOf(8) {
		best.up = unit.KbpsOf(8)
	}
	loss := unit.LossRate(lossSum / float64(lossRuns))
	if loss <= 0 {
		// Short tests on low-loss lines may observe zero drops; fall back
		// to a jittered line value like a longer panel would converge to.
		loss = measuredLoss(q.Loss, rng)
	}
	best.loss = loss
	best.webRTT = webRTTFor(best.rtt, rng)
	return best, nil
}

// lossModelFor maps a stationary loss rate to a channel model: wireless and
// satellite lines lose in bursts, wireline i.i.d.
func lossModelFor(l unit.LossRate, tech market.Technology) netsim.LossModel {
	if tech == market.Satellite || tech == market.FixedWireless {
		// Split the budget: a third i.i.d., the rest in bursts at 30%
		// in-burst loss. Choose PGoodToBad for the target stationary rate:
		// fracBad·0.3 = (2/3)·l with PBadToGood = 0.2.
		iid := float64(l) / 3
		burstLoss := 0.3
		target := 2 * float64(l) / 3
		fracBad := target / burstLoss
		if fracBad > 0.9 {
			fracBad = 0.9
		}
		pBadToGood := 0.2
		pGoodToBad := fracBad * pBadToGood / (1 - fracBad)
		return netsim.LossModel{
			Rate:       unit.LossRate(iid),
			Burst:      true,
			PGoodToBad: pGoodToBad,
			PBadToGood: pBadToGood,
			BadLoss:    unit.LossRate(burstLoss),
		}
	}
	return netsim.LossModel{Rate: l}
}

// webRTTFor derives the popular-website RTT from the measurement-server
// RTT: content sits a little farther than the nearest NDT server, with
// per-site spread.
func webRTTFor(ndtRTT float64, rng *randx.Source) float64 {
	extra := 0.004 + 0.012*rng.Float64()
	return ndtRTT*(1+0.08*rng.Float64()) + extra
}

// measuredLoss jitters the line's stationary loss the way a finite NDT
// sample would.
func measuredLoss(l unit.LossRate, rng *randx.Source) unit.LossRate {
	v := float64(l) * math.Exp(rng.Normal(0, 0.25))
	if v < 0.000005 {
		v = 0.000005
	}
	if v > 0.3 {
		v = 0.3
	}
	return unit.LossRate(v)
}
