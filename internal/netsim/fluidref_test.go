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

// matchStepped runs specs through Run on sc and through runStepped, each
// on fresh copies, and reports the first difference in counters,
// completions or any flow's finish bits.
func matchStepped(sim FluidSim, specs []FluidFlow, horizon float64, sc *FluidScratch) error {
	run := func(run func([]*FluidFlow) (FluidResult, error)) (FluidResult, []FluidFlow, error) {
		flows := make([]FluidFlow, len(specs))
		copy(flows, specs)
		ptrs := make([]*FluidFlow, len(flows))
		for i := range flows {
			ptrs[i] = &flows[i]
		}
		res, err := run(ptrs)
		return res, flows, err
	}
	got, gotFlows, err := run(func(fs []*FluidFlow) (FluidResult, error) { return sim.Run(fs, horizon, sc) })
	want, wantFlows, werr := run(func(fs []*FluidFlow) (FluidResult, error) { return runStepped(sim, fs, horizon) })
	if (err == nil) != (werr == nil) {
		return fmt.Errorf("error %v, stepped %v", err, werr)
	}
	if err != nil {
		return nil
	}
	if got.Completed != want.Completed {
		return fmt.Errorf("completed %d, stepped %d", got.Completed, want.Completed)
	}
	if len(got.Counters) != len(want.Counters) {
		return fmt.Errorf("%d counters, stepped %d", len(got.Counters), len(want.Counters))
	}
	for i := range got.Counters {
		if got.Counters[i] != want.Counters[i] {
			return fmt.Errorf("counter[%d] = %d, stepped %d", i, got.Counters[i], want.Counters[i])
		}
	}
	for i := range gotFlows {
		gd, ga := gotFlows[i].Finished()
		wd, wa := wantFlows[i].Finished()
		if gd != wd || math.Float64bits(ga) != math.Float64bits(wa) {
			return fmt.Errorf("flow %d: finished (%v, %v), stepped (%v, %v)", gotFlows[i].ID, gd, ga, wd, wa)
		}
	}
	return nil
}

// TestFluidRunMatchesStepped holds Run — its idle-time jump, its cached
// allocation and its coast through whole intervals — to the stepping
// reference: counters, completions and every flow's finish time must be
// identical. The random sets include flows arriving at exactly t=0, on a
// counter boundary, after the last other arrival and at or beyond the
// horizon; the named cases pin the stretches a coast must hand back
// around. Every run shares one scratch, so a counter, arrival, active
// flow or allocation left over from an earlier run would show.
func TestFluidRunMatchesStepped(t *testing.T) {
	var sc FluidScratch
	const interval = CounterInterval
	mbps := unit.MbpsOf
	cases := []struct {
		name     string
		capacity unit.Bitrate
		horizon  float64
		flows    []FluidFlow
	}{
		{
			// BitTorrent-like: capped flows that run for hundreds of
			// intervals, one outliving the horizon.
			name: "long capped flows", capacity: mbps(10), horizon: 2880 * interval,
			flows: []FluidFlow{
				{ID: 1, Arrival: 0, Volume: 900 * unit.MB, Cap: mbps(1.5)},
				{ID: 2, Arrival: 4170, Volume: 4000 * unit.MB, Cap: mbps(3)},
				{ID: 3, Arrival: 12.5, Volume: 60 * unit.MB, Cap: unit.KbpsOf(300)},
			},
		},
		{
			// One of three flows retires mid-stretch; the survivors'
			// shares must grow from the next step on.
			name: "retire mid-stretch", capacity: mbps(6), horizon: 400 * interval,
			flows: []FluidFlow{
				{ID: 1, Arrival: 0, Volume: 200 * unit.MB},
				{ID: 2, Arrival: 0, Volume: 20*unit.MB + 12345, Cap: mbps(1)},
				{ID: 3, Arrival: 0, Volume: 90 * unit.MB},
			},
		},
		{
			// 1 Mbps moves 3,750,000 bytes an interval: the flow
			// completes exactly on the 40th boundary, and its follower
			// arrives there.
			name: "completion on a boundary", capacity: mbps(1), horizon: 100 * interval,
			flows: []FluidFlow{
				{ID: 1, Arrival: 0, Volume: 40 * 3_750_000},
				{ID: 2, Arrival: 40 * interval, Volume: 10 * 3_750_000},
			},
		},
		{
			// An arrival exactly on a grid point after a long coast
			// changes the shares there, not one interval later.
			name: "arrival on a grid point after a coast", capacity: mbps(4), horizon: 600 * interval,
			flows: []FluidFlow{
				{ID: 1, Arrival: 0, Volume: 150 * unit.MB},
				{ID: 2, Arrival: 123 * interval, Volume: 30 * unit.MB},
				{ID: 3, Arrival: 250 * interval, Volume: 5 * unit.MB, Cap: mbps(0.5)},
			},
		},
		{
			// The last interval is partial: the coast must stop at the
			// last whole boundary and the general step finish the run.
			name: "horizon mid-interval", capacity: mbps(2), horizon: 200*interval + 17.25,
			flows: []FluidFlow{
				{ID: 1, Arrival: 0, Volume: 1000 * unit.MB},
				{ID: 2, Arrival: 3.5, Volume: 100 * unit.MB, Cap: mbps(0.7)},
			},
		},
	}
	for _, c := range cases {
		if err := matchStepped(FluidSim{Capacity: c.capacity}, c.flows, c.horizon, &sc); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}

	rng := newRand(13)
	for trial := 0; trial < 300; trial++ {
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
			if rng.IntN(8) == 0 {
				f.Volume = unit.ByteSize(rng.IntN(400_000_000)) // runs for many intervals
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
		if err := matchStepped(sim, specs, horizon, &sc); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzFluidRunMatchesStepped holds Run to runStepped on arbitrary flow
// sets. Each 8-byte record of raw is one flow: an arrival (on a counter
// boundary when its high bit is set, else anywhere in the horizon), a
// volume of up to 2^24·mult bytes, and a cap (none when zero).
func FuzzFluidRunMatchesStepped(f *testing.F) {
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0, 0, 0}, uint16(30), uint16(2000), uint8(16))
	f.Add([]byte{
		0x80, 0x00, 0x10, 0x00, 0x00, 0x40, 0x00, 0x00,
		0x80, 0x05, 0x00, 0x80, 0x00, 0x00, 0x10, 0x00,
		0x12, 0x34, 0x56, 0x78, 0x9a, 0x00, 0x00, 0x00,
	}, uint16(200), uint16(600), uint8(200))
	f.Add([]byte{0x80, 0x00, 0x27, 0x3b, 0x10, 0x00, 0x00, 0x00}, uint16(1), uint16(90), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, capKbps, intervals uint16, mult uint8) {
		const interval = CounterInterval
		horizon := interval * float64(intervals%3000)
		if len(raw)%8 != 0 {
			horizon += float64(raw[len(raw)-1]) / 256 * interval // a partial last interval
		}
		flows := make([]FluidFlow, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw) && len(flows) < 32; i += 8 {
			r := raw[i : i+8]
			at := float64(uint16(r[0]&0x7f)<<8|uint16(r[1])) / 0x8000 * horizon
			if r[0]&0x80 != 0 {
				at = math.Floor(at/interval) * interval
			}
			flows = append(flows, FluidFlow{
				ID:      int64(len(flows)),
				Arrival: at,
				Volume:  unit.ByteSize(uint32(r[2])<<16|uint32(r[3])<<8|uint32(r[4])) * unit.ByteSize(1+int(mult)),
				Cap:     unit.KbpsOf(float64(uint16(r[5])<<8|uint16(r[6])) / 8),
			})
		}
		sim := FluidSim{Capacity: unit.KbpsOf(float64(capKbps))}
		if err := matchStepped(sim, flows, horizon, nil); err != nil {
			t.Fatal(err)
		}
	})
}
