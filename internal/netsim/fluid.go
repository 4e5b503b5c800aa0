package netsim

import (
	"fmt"
	"math"
	"sort"

	"github.com/nwca/broadband/internal/unit"
)

// FluidFlow is one transfer in the flow-level simulator: a volume to move,
// subject to a per-flow rate cap (application pacing, remote bottleneck, or
// the Mathis TCP bound for the path quality). Flows share the access link by
// max-min fair processor sharing, which is what competing TCP flows
// approximate over timescales of seconds.
type FluidFlow struct {
	ID      int64
	Arrival float64       // virtual arrival time, seconds
	Volume  unit.ByteSize // bytes to transfer
	Cap     unit.Bitrate  // per-flow ceiling; 0 or negative means uncapped

	remaining float64 // bytes outstanding
	done      bool
	finish    float64
}

// Finished reports whether the flow completed within the simulated horizon,
// and at what time.
func (f *FluidFlow) Finished() (bool, float64) { return f.done, f.finish }

// FluidSim runs a set of fluid flows over a single bottleneck of the given
// capacity and records per-interval byte counters — the synthetic equivalent
// of the UPnP/netstat counters the Dasu client sampled every ~30 seconds.
type FluidSim struct {
	Capacity unit.Bitrate
	Interval float64 // counter sampling interval, seconds (default 30)
}

// FluidResult reports a fluid simulation run.
type FluidResult struct {
	// Counters[i] is the byte volume transferred in interval i, i.e. in
	// virtual time [i·Interval, (i+1)·Interval).
	Counters []unit.ByteSize
	// TotalBytes is the volume moved across the whole horizon.
	TotalBytes unit.ByteSize
	// Completed is the number of flows that finished within the horizon.
	Completed int
}

// Run simulates the flows until the given horizon (seconds). Flows still in
// progress at the horizon simply stop accumulating. The algorithm is
// event-driven: between consecutive events (arrival, completion, or counter
// boundary) the max-min fair allocation is constant, so each flow's
// remaining volume decreases linearly and the earliest completion is exact.
func (s FluidSim) Run(flows []*FluidFlow, horizon float64) (FluidResult, error) {
	if s.Capacity <= 0 {
		return FluidResult{}, fmt.Errorf("netsim: fluid capacity must be positive, got %v", s.Capacity)
	}
	if horizon <= 0 {
		return FluidResult{}, fmt.Errorf("netsim: fluid horizon must be positive, got %v", horizon)
	}
	interval := s.Interval
	if interval <= 0 {
		interval = 30
	}
	nIntervals := int(math.Ceil(horizon / interval))
	res := FluidResult{Counters: make([]unit.ByteSize, nIntervals)}

	// Sort flows by arrival; initialize remaining volumes.
	pending := make([]*FluidFlow, len(flows))
	copy(pending, flows)
	sort.Slice(pending, func(i, j int) bool { return pending[i].Arrival < pending[j].Arrival })
	for _, f := range pending {
		f.remaining = float64(f.Volume)
		f.done = false
	}

	active := make([]*FluidFlow, 0, 16)
	now := 0.0
	next := 0    // next pending arrival index
	carry := 0.0 // sub-byte remainder so counter truncation never accumulates

	// Allocation scratch reused by every maxMinFair step: the allocator
	// was the dominant cost of long fluid horizons (one rates + one unsat
	// slice per event step, hundreds of steps per simulated day).
	var scratch fairScratch

	for now < horizon {
		// Admit arrivals at the current time.
		for next < len(pending) && pending[next].Arrival <= now {
			if pending[next].remaining > 0 {
				active = append(active, pending[next])
			} else {
				pending[next].done = true
				pending[next].finish = now
				res.Completed++
			}
			next++
		}

		if len(active) == 0 {
			// Idle: nothing moves and carry stays put until the next
			// arrival, so jump straight to it. Stepping one counter
			// interval at a time lands on exactly the same time.
			now = horizon
			if next < len(pending) && pending[next].Arrival < horizon {
				now = pending[next].Arrival
			}
			continue
		}

		// Horizon of this step: next arrival, next counter boundary, horizon.
		stepEnd := horizon
		if next < len(pending) && pending[next].Arrival < stepEnd {
			stepEnd = pending[next].Arrival
		}
		boundary := (math.Floor(now/interval) + 1) * interval
		if boundary < stepEnd {
			stepEnd = boundary
		}

		rates := scratch.maxMinFair(s.Capacity.BitsPerSecond(), active)

		// Earliest completion under these rates.
		for i, f := range active {
			if rates[i] <= 0 {
				continue
			}
			t := now + f.remaining*8/rates[i]
			if t < stepEnd {
				stepEnd = t
			}
		}

		dt := stepEnd - now
		if dt <= 0 {
			// Numerical corner: force minimal progress to the boundary.
			dt = math.Nextafter(now, math.Inf(1)) - now
			stepEnd = now + dt
		}

		// Accumulate transfer into interval counters, splitting across a
		// boundary never happens because stepEnd ≤ next boundary.
		idx := int(now / interval)
		if idx >= nIntervals {
			idx = nIntervals - 1
		}
		moved := 0.0
		for i, f := range active {
			b := rates[i] * dt / 8
			if b > f.remaining {
				b = f.remaining
			}
			f.remaining -= b
			moved += b
		}
		moved += carry
		whole := math.Floor(moved)
		carry = moved - whole
		res.Counters[idx] += unit.ByteSize(whole)

		// Retire completed flows.
		live := active[:0]
		for _, f := range active {
			if f.remaining <= 1e-6 {
				f.remaining = 0
				f.done = true
				f.finish = stepEnd
				res.Completed++
			} else {
				live = append(live, f)
			}
		}
		active = live
		now = stepEnd
	}

	for _, c := range res.Counters {
		res.TotalBytes += c
	}
	return res, nil
}

// fairScratch carries the reusable buffers of the max-min fair allocator
// so a long simulation run allocates them once, not once per event step.
// The returned rates slice is valid until the next call.
type fairScratch struct {
	rates []float64
	unsat []int
}

// maxMinFair computes the max-min fair allocation (bits/s) of capacity among
// active flows honoring per-flow caps: water-filling where capped flows
// saturate first and the residual is split among the rest.
func (sc *fairScratch) maxMinFair(capacity float64, active []*FluidFlow) []float64 {
	n := len(active)
	rates := sc.rates[:0]
	for i := 0; i < n; i++ {
		rates = append(rates, 0)
	}
	sc.rates = rates
	if n == 0 {
		return rates
	}
	remainingCap := capacity
	unsat := sc.unsat[:0]
	for i := range active {
		unsat = append(unsat, i)
	}
	sc.unsat = unsat
	for len(unsat) > 0 && remainingCap > 1e-12 {
		share := remainingCap / float64(len(unsat))
		progressed := false
		stillUnsat := unsat[:0]
		for _, i := range unsat {
			cap := float64(active[i].Cap)
			if cap > 0 && cap-rates[i] <= share {
				// This flow saturates at its cap.
				remainingCap -= cap - rates[i]
				rates[i] = cap
				progressed = true
			} else {
				stillUnsat = append(stillUnsat, i)
			}
		}
		unsat = stillUnsat
		if !progressed {
			// No caps bind: split the residual evenly and finish.
			share = remainingCap / float64(len(unsat))
			for _, i := range unsat {
				rates[i] += share
			}
			remainingCap = 0
			break
		}
	}
	return rates
}
