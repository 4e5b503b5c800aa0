package netsim

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/nwca/broadband/internal/unit"
)

// runStepped is the reference FluidSim.Run must reproduce: the original
// event loop, which steps through idle time one counter interval at a
// time instead of jumping to the next arrival.
func runStepped(s FluidSim, flows []*FluidFlow, horizon float64) (FluidResult, error) {
	if s.Capacity <= 0 {
		return FluidResult{}, fmt.Errorf("netsim: fluid capacity must be positive, got %v", s.Capacity)
	}
	if horizon <= 0 {
		return FluidResult{}, fmt.Errorf("netsim: fluid horizon must be positive, got %v", horizon)
	}
	const interval = CounterInterval
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

		// Horizon of this step: next arrival, next counter boundary, horizon.
		stepEnd := horizon
		if next < len(pending) && pending[next].Arrival < stepEnd {
			stepEnd = pending[next].Arrival
		}
		boundary := (math.Floor(now/interval) + 1) * interval
		if boundary < stepEnd {
			stepEnd = boundary
		}

		if len(active) == 0 {
			now = stepEnd
			continue
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

	return res, nil
}

// TestFluidRunMatchesStepped holds Run's idle-time jump to the stepping
// reference on randomised flow sets: counters, completions and every
// flow's finish time must be identical. The sets include flows arriving at
// exactly t=0, on a counter boundary, after the last other arrival and at
// or beyond the horizon. Every trial runs on one scratch, so a counter,
// arrival or active flow left over from a longer earlier trial would show.
func TestFluidRunMatchesStepped(t *testing.T) {
	rng := newRand(13)
	var sc FluidScratch
	for trial := 0; trial < 300; trial++ {
		const interval = CounterInterval
		horizon := interval * float64(1+rng.IntN(400))
		if trial%5 == 0 {
			horizon += interval * rng.Float64() // a partial last interval
		}
		n := rng.IntN(12)
		specs := make([]FluidFlow, 0, n+4)
		for i := 0; i < n; i++ {
			f := FluidFlow{
				ID:      int64(i),
				Arrival: rng.Float64() * horizon,
				Volume:  unit.ByteSize(rng.IntN(8_000_000)),
			}
			switch rng.IntN(4) {
			case 0:
				f.Arrival = float64(rng.IntN(int(horizon/interval)+1)) * interval // on a boundary
			case 1:
				f.Cap = unit.KbpsOf(100 + rng.Float64()*3000)
			}
			specs = append(specs, f)
		}
		last := 0.0
		for _, f := range specs {
			last = math.Max(last, f.Arrival)
		}
		specs = append(specs,
			FluidFlow{ID: 100, Arrival: 0, Volume: unit.ByteSize(rng.IntN(2_000_000))},
			FluidFlow{ID: 101, Arrival: last + (horizon-last)*rng.Float64(), Volume: unit.ByteSize(rng.IntN(2_000_000))},
		)
		if trial%7 == 0 {
			specs = append(specs,
				FluidFlow{ID: 102, Arrival: horizon, Volume: unit.MB},
				FluidFlow{ID: 103, Arrival: horizon * 2, Volume: unit.MB},
			)
		}
		sim := FluidSim{Capacity: unit.MbpsOf(0.5 + 20*rng.Float64())}

		run := func(run func([]*FluidFlow) (FluidResult, error)) (FluidResult, []FluidFlow) {
			flows := make([]FluidFlow, len(specs))
			copy(flows, specs)
			ptrs := make([]*FluidFlow, len(flows))
			for i := range flows {
				ptrs[i] = &flows[i]
			}
			res, err := run(ptrs)
			if err != nil {
				t.Fatal(err)
			}
			return res, flows
		}
		got, gotFlows := run(func(fs []*FluidFlow) (FluidResult, error) { return sim.Run(fs, horizon, &sc) })
		want, wantFlows := run(func(fs []*FluidFlow) (FluidResult, error) { return runStepped(sim, fs, horizon) })

		if got.Completed != want.Completed {
			t.Fatalf("trial %d: completed %d, stepped %d", trial, got.Completed, want.Completed)
		}
		if len(got.Counters) != len(want.Counters) {
			t.Fatalf("trial %d: %d counters, stepped %d", trial, len(got.Counters), len(want.Counters))
		}
		for i := range got.Counters {
			if got.Counters[i] != want.Counters[i] {
				t.Fatalf("trial %d: counter[%d] = %d, stepped %d", trial, i, got.Counters[i], want.Counters[i])
			}
		}
		for i := range gotFlows {
			gd, ga := gotFlows[i].Finished()
			wd, wa := wantFlows[i].Finished()
			if gd != wd || math.Float64bits(ga) != math.Float64bits(wa) {
				t.Fatalf("trial %d flow %d: finished (%v, %v), stepped (%v, %v)", trial, gotFlows[i].ID, gd, ga, wd, wa)
			}
		}
	}
}
