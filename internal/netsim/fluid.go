package netsim

import (
	"fmt"
	"math"
	"slices"

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

// CounterInterval is the byte-counter period in seconds: the Dasu client
// sampled its UPnP/netstat counters every 30 seconds, and the FCC
// gateways' hourly counters are aggregated from the same grid downstream.
const CounterInterval = 30

// FluidSim runs a set of fluid flows over a single bottleneck of the given
// capacity and records a byte counter per CounterInterval — the synthetic
// equivalent of the counters the Dasu client sampled.
type FluidSim struct {
	Capacity unit.Bitrate
}

// FluidResult reports a fluid simulation run.
type FluidResult struct {
	// Counters[i] is the byte volume transferred in interval i, i.e. in
	// virtual time [i·CounterInterval, (i+1)·CounterInterval).
	Counters []unit.ByteSize
	// Completed is the number of flows that finished within the horizon.
	Completed int
}

// FluidScratch holds the buffers of a fluid run — the counters, the
// arrival order, the active set, the per-interval volumes and the
// allocator's — so that a caller simulating many flow sets in turn
// allocates them once. The zero value is ready to use. A scratch serves
// one run at a time.
type FluidScratch struct {
	counters        []unit.ByteSize
	pending, active []*FluidFlow
	step            []float64
	fair            fairScratch
}

// Run simulates the flows until the given horizon (seconds). Flows still in
// progress at the horizon simply stop accumulating. The algorithm is
// event-driven: between consecutive events (arrival, completion, or counter
// boundary) the max-min fair allocation is constant, so each flow's
// remaining volume decreases linearly and the earliest completion is exact.
//
// The allocation depends only on the active set, so it is solved once per
// admission or retirement. From a counter boundary the run coasts through
// whole intervals that no arrival, completion or horizon can cut short,
// with the same arithmetic, in the same order, as one event step each.
//
// The run works in sc's buffers, and the result's Counters alias sc: they
// stay valid until sc's next run. A nil sc runs on fresh buffers.
func (s FluidSim) Run(flows []*FluidFlow, horizon float64, sc *FluidScratch) (FluidResult, error) {
	if s.Capacity <= 0 {
		return FluidResult{}, fmt.Errorf("netsim: fluid capacity must be positive, got %v", s.Capacity)
	}
	if horizon <= 0 {
		return FluidResult{}, fmt.Errorf("netsim: fluid horizon must be positive, got %v", horizon)
	}
	if sc == nil {
		sc = new(FluidScratch)
	}
	const interval = CounterInterval
	nIntervals := int(math.Ceil(horizon / interval))
	if cap(sc.counters) < nIntervals {
		sc.counters = make([]unit.ByteSize, nIntervals)
	} else {
		sc.counters = sc.counters[:nIntervals]
		clear(sc.counters)
	}
	res := FluidResult{Counters: sc.counters}

	// Sort flows by arrival; initialize remaining volumes.
	pending := append(sc.pending[:0], flows...)
	sc.pending = pending
	slices.SortFunc(pending, byArrival)
	for _, f := range pending {
		f.remaining = float64(f.Volume)
		f.done = false
	}

	active := slices.Grow(sc.active[:0], 16)
	now := 0.0
	next := 0    // next pending arrival index
	carry := 0.0 // sub-byte remainder so counter truncation never accumulates

	// rates[i] is active[i]'s max-min fair rate and step[i] the bytes it
	// moves in one whole interval; both are stale once the active set
	// changes.
	var rates, step []float64
	stale := true

	for now < horizon {
		// Admit arrivals at the current time.
		for next < len(pending) && pending[next].Arrival <= now {
			if pending[next].remaining > 0 {
				active = append(active, pending[next])
				stale = true
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

		if stale {
			rates = sc.fair.maxMinFair(s.Capacity.BitsPerSecond(), active)
			step = slices.Grow(sc.step[:0], len(rates))[:len(rates)]
			sc.step = step
			for i, r := range rates {
				step[i] = r * interval / 8
			}
			stale = false
		}

		// Horizon of this step: next arrival, next counter boundary, horizon.
		stepEnd := horizon
		if next < len(pending) && pending[next].Arrival < stepEnd {
			stepEnd = pending[next].Arrival
		}
		boundary := (math.Floor(now/interval) + 1) * interval

		if boundary-interval == now && boundary <= stepEnd {
			// On a counter boundary with a whole interval ahead: coast.
			if n := coast(active, step, now, stepEnd, &carry, res.Counters); n > 0 {
				now += float64(n) * interval
				continue
			}
		}

		if boundary < stepEnd {
			stepEnd = boundary
		}

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

		// Retire completed flows, moving a survivor only when one before
		// it left: most steps retire nothing.
		live := 0
		for i, f := range active {
			if f.remaining <= 1e-6 {
				f.remaining = 0
				f.done = true
				f.finish = stepEnd
				res.Completed++
				continue
			}
			if live != i {
				active[live] = f
			}
			live++
		}
		stale = stale || live < len(active)
		active = active[:live]
		now = stepEnd
	}

	sc.active = active[:0] // keep a grown backing array for the next run
	return res, nil
}

// coast takes whole counter intervals from the boundary now while the next
// one ends by limit and no flow would fall to the retire threshold in it,
// and returns how many it took. Each is the event step Run would take
// there: dt is exactly one interval, so flow i moves step[i] bytes, and
// the bytes are summed in active order before carry joins them. Nor can a
// flow complete inside such an interval: remaining − step[i] > 1e-6 puts
// remaining at least one ulp above step[i], so remaining·8 exceeds
// rate·30 exactly and the completion time now + remaining·8/rate rounds
// to no earlier than the interval's end.
func coast(active []*FluidFlow, step []float64, now, limit float64, carry *float64, counters []unit.ByteSize) int {
	const interval = CounterInterval
	idx := int(now / interval)
	n := 0
	for end := now + interval; end <= limit; end += interval {
		for i, f := range active {
			if f.remaining-step[i] <= 1e-6 {
				return n
			}
		}
		moved := 0.0
		for i, f := range active {
			f.remaining -= step[i]
			moved += step[i]
		}
		moved += *carry
		whole := math.Floor(moved)
		*carry = moved - whole
		counters[idx+n] += unit.ByteSize(whole)
		n++
	}
	return n
}

// byArrival orders flows by arrival time. slices.SortFunc runs the same
// pdqsort as sort.Slice step for step, so tied flows land in the order
// they always have.
func byArrival(a, b *FluidFlow) int {
	switch {
	case a.Arrival < b.Arrival:
		return -1
	case b.Arrival < a.Arrival:
		return 1
	}
	return 0
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
	if cap(sc.rates) < n {
		// Grow only here: storing the slices back on every call costs a
		// GC write barrier per event step.
		sc.rates, sc.unsat = make([]float64, n), make([]int, n)
	}
	rates := sc.rates[:n]
	clear(rates)
	if n == 0 {
		return rates
	}
	remainingCap := capacity
	unsat := sc.unsat[:n]
	for i := range unsat {
		unsat[i] = i
	}
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
