package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/nwca/broadband/internal/unit"
)

func TestFluidSingleFlow(t *testing.T) {
	// One uncapped 15 MB flow on a 4 Mbps link: completes in 30 s.
	sim := FluidSim{Capacity: unit.MbpsOf(4), Interval: 10}
	f := &FluidFlow{Arrival: 0, Volume: 15 * unit.MB}
	res, err := sim.Run([]*FluidFlow{f}, 100)
	if err != nil {
		t.Fatal(err)
	}
	done, at := f.Finished()
	if !done {
		t.Fatal("flow did not finish")
	}
	if math.Abs(at-30) > 1e-6 {
		t.Errorf("finish at %v, want 30", at)
	}
	if res.Completed != 1 {
		t.Errorf("Completed = %d", res.Completed)
	}
	if res.TotalBytes != 15*unit.MB {
		t.Errorf("TotalBytes = %v", res.TotalBytes)
	}
	// First three 10-second counters carry 5 MB each; the rest are empty.
	for i := 0; i < 3; i++ {
		if math.Abs(float64(res.Counters[i])/float64(unit.MB)-5) > 1e-6 {
			t.Errorf("counter[%d] = %v, want 5 MB", i, res.Counters[i])
		}
	}
	for i := 3; i < len(res.Counters); i++ {
		if res.Counters[i] != 0 {
			t.Errorf("counter[%d] = %v, want 0", i, res.Counters[i])
		}
	}
}

func TestFluidFairSharing(t *testing.T) {
	// Two equal uncapped flows arriving together split the link; each
	// transfers half as fast as alone.
	sim := FluidSim{Capacity: unit.MbpsOf(8), Interval: 30}
	a := &FluidFlow{ID: 1, Volume: 30 * unit.MB}
	b := &FluidFlow{ID: 2, Volume: 30 * unit.MB}
	if _, err := sim.Run([]*FluidFlow{a, b}, 200); err != nil {
		t.Fatal(err)
	}
	_, atA := a.Finished()
	_, atB := b.Finished()
	// Each gets 4 Mbps: 30 MB → 60 s.
	if math.Abs(atA-60) > 1e-6 || math.Abs(atB-60) > 1e-6 {
		t.Errorf("finish times %v, %v, want 60", atA, atB)
	}
}

func TestFluidCapRespected(t *testing.T) {
	// A capped flow cannot exceed its ceiling even on an idle fat link, and
	// the spare capacity goes to the uncapped flow.
	sim := FluidSim{Capacity: unit.MbpsOf(10), Interval: 30}
	capped := &FluidFlow{ID: 1, Volume: 7500 * unit.KB, Cap: unit.MbpsOf(2)} // 7.5 MB at 2 Mbps = 30 s
	greedy := &FluidFlow{ID: 2, Volume: 30 * unit.MB}                        // gets 8 Mbps → 30 s
	if _, err := sim.Run([]*FluidFlow{capped, greedy}, 200); err != nil {
		t.Fatal(err)
	}
	_, atC := capped.Finished()
	_, atG := greedy.Finished()
	if math.Abs(atC-30) > 1e-6 {
		t.Errorf("capped finish %v, want 30 (rate pinned at cap)", atC)
	}
	if math.Abs(atG-30) > 1e-6 {
		t.Errorf("greedy finish %v, want 30 (8 Mbps residual)", atG)
	}
}

func TestFluidStaggeredArrivals(t *testing.T) {
	// Flow B arrives halfway through A. A: 10 Mbps alone for 10 s (12.5 MB
	// moved), then 5 Mbps shared. A has 12.5 MB left → 20 more s (t=30).
	// B needs 25 MB: shares 5 Mbps until A leaves (12.5 MB in 20 s), then
	// 10 Mbps alone for remaining 12.5 MB → 10 s, t=40.
	sim := FluidSim{Capacity: unit.MbpsOf(10), Interval: 30}
	a := &FluidFlow{ID: 1, Arrival: 0, Volume: 25 * unit.MB}
	b := &FluidFlow{ID: 2, Arrival: 10, Volume: 25 * unit.MB}
	if _, err := sim.Run([]*FluidFlow{a, b}, 300); err != nil {
		t.Fatal(err)
	}
	_, atA := a.Finished()
	_, atB := b.Finished()
	if math.Abs(atA-30) > 1e-6 {
		t.Errorf("A finished at %v, want 30", atA)
	}
	if math.Abs(atB-40) > 1e-6 {
		t.Errorf("B finished at %v, want 40", atB)
	}
}

func TestFluidHorizonTruncation(t *testing.T) {
	sim := FluidSim{Capacity: unit.MbpsOf(1), Interval: 30}
	f := &FluidFlow{Volume: unit.GB} // 8000 s of work
	res, err := sim.Run([]*FluidFlow{f}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := f.Finished(); done {
		t.Error("flow cannot have finished inside the horizon")
	}
	if res.Completed != 0 {
		t.Errorf("Completed = %d", res.Completed)
	}
	// 60 s at 1 Mbps = 7.5 MB.
	if math.Abs(float64(res.TotalBytes)/float64(unit.MB)-7.5) > 1e-6 {
		t.Errorf("TotalBytes = %v, want 7.5 MB", res.TotalBytes)
	}
}

func TestFluidZeroVolumeAndErrors(t *testing.T) {
	sim := FluidSim{Capacity: unit.MbpsOf(1)}
	res, err := sim.Run([]*FluidFlow{{Volume: 0}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Errorf("zero-volume flow should complete instantly, got %d", res.Completed)
	}
	if _, err := (FluidSim{}).Run(nil, 10); err == nil {
		t.Error("zero capacity should error")
	}
	if _, err := (FluidSim{Capacity: unit.Mbps}).Run(nil, 0); err == nil {
		t.Error("zero horizon should error")
	}
}

func TestFluidConservationProperty(t *testing.T) {
	// Work conservation: with enough offered load the link moves exactly
	// capacity × horizon bytes; with light load it moves exactly the sum of
	// volumes. Total counters always equal bytes drained from flows.
	f := func(seed int64) bool {
		rng := newRand(seed)
		capacity := unit.MbpsOf(1 + 9*rng.Float64())
		horizon := 120.0
		var flows []*FluidFlow
		var offered float64
		n := 1 + rng.IntN(20)
		for i := 0; i < n; i++ {
			fl := &FluidFlow{
				ID:      int64(i),
				Arrival: rng.Float64() * horizon / 2,
				Volume:  unit.ByteSize(1e4 + rng.Float64()*3e6),
			}
			if rng.IntN(2) == 0 {
				fl.Cap = unit.MbpsOf(0.2 + 2*rng.Float64())
			}
			offered += float64(fl.Volume)
			flows = append(flows, fl)
		}
		res, err := FluidSim{Capacity: capacity, Interval: 30}.Run(flows, horizon)
		if err != nil {
			return false
		}
		// Conservation: moved bytes = offered − remaining.
		var remaining float64
		for _, fl := range flows {
			remaining += fl.remaining
		}
		if math.Abs(float64(res.TotalBytes)-(offered-remaining)) > 1+1e-6*offered {
			return false
		}
		// Never exceeds capacity × horizon.
		return float64(res.TotalBytes) <= capacity.BitsPerSecond()*horizon/8*1.000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
