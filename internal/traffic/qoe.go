// Package traffic implements the behavioral demand model of the synthetic
// world: what subscribers ask of their broadband line, second by second.
//
// Each user is a session process — web fetches, adaptive video, bulk
// downloads, background sync and (for part of the Dasu population)
// BitTorrent — whose arrivals follow a diurnal profile and whose achievable
// per-flow rates are limited by the access capacity, by remote bottlenecks
// and by the TCP-feasible rate for the line's latency and loss (the Mathis
// bound). The model embeds, as explicit ground truth, the causal mechanisms
// the paper infers from observational data:
//
//   - capacity → demand: video bitrates adapt up with capacity until a
//     per-user quality appetite ceiling (the ~10 Mbps diminishing-returns
//     knee), bulk transfers complete faster (raising the 95th percentile),
//     and session appetite grows mildly with headroom (induced demand);
//   - quality → demand: long latencies and high loss rates suppress both
//     the achievable rate (mechanically, via TCP) and the number of
//     sessions users bother starting (behaviorally, via QoEFactor);
//   - price → demand appears nowhere here: it acts purely through plan
//     selection (internal/market), which is exactly the causal path the
//     paper argues for.
package traffic

import (
	"math"

	"github.com/nwca/broadband/internal/netsim"
	"github.com/nwca/broadband/internal/unit"
)

// Quality is the connection-quality context of a user's line.
type Quality struct {
	RTT  float64 // round-trip time to content, seconds
	Loss unit.LossRate
}

// QoEFactor returns the behavioral demand multiplier in (0, 1] for a line's
// quality: the fraction of would-be sessions users still start when the
// experience degrades. Calibrated so the paper's thresholds bite: latencies
// beyond 500 ms and loss beyond 1% produce clearly lower usage, with loss
// effects beginning around 0.1% (Sec. 7).
func QoEFactor(q Quality) float64 {
	f := 1.0
	// Latency: flat below 100 ms, then a smooth logistic decline that
	// reaches ~0.8 at 500 ms and ~0.55 at 2 s.
	if q.RTT > 0.1 {
		f *= 0.5 + 0.5/(1+math.Pow(q.RTT/0.7, 1.4))
	}
	// Loss: effects begin around 0.1% (the paper's threshold), reaching
	// ~0.78 at 0.5%, ~0.70 at 1% and ~0.54 at 5%.
	if l := float64(q.Loss); l > 0.0005 {
		f *= 0.45 + 0.55/(1+math.Pow(l/0.008, 0.9))
	}
	if f < 0.3 {
		f = 0.3
	}
	return f
}

// FeasibleRate bounds a flow's achievable rate by the line capacity and by
// the TCP-feasible (Mathis) rate for the line quality.
func FeasibleRate(capacity unit.Bitrate, q Quality, flowCap unit.Bitrate) unit.Bitrate {
	r := flowCap
	if r <= 0 || r > capacity {
		r = capacity
	}
	if q.RTT > 0 && q.Loss > 0 {
		if m := netsim.MathisThroughput(netsim.MSS, q.RTT, q.Loss); m < r {
			r = m
		}
	}
	// A floor keeps pathological lines trickling rather than frozen.
	if min := unit.KbpsOf(8); r < min {
		r = min
	}
	return r
}
