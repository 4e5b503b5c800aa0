package netsim

import (
	"math"
	"testing"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

func mustLink(t *testing.T, sim *Simulator, cfg LinkConfig, rng *randx.Source) *Link {
	t.Helper()
	l, err := NewLink(sim, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLinkValidation(t *testing.T) {
	var sim Simulator
	if _, err := NewLink(nil, LinkConfig{Rate: unit.Mbps}, nil); err == nil {
		t.Error("nil simulator should error")
	}
	if _, err := NewLink(&sim, LinkConfig{Rate: 0}, nil); err == nil {
		t.Error("zero rate should error")
	}
	if _, err := NewLink(&sim, LinkConfig{Rate: unit.Mbps, Delay: -1}, nil); err == nil {
		t.Error("negative delay should error")
	}
	if _, err := NewLink(&sim, LinkConfig{Rate: unit.Mbps, Loss: LossModel{Rate: 2}}, nil); err == nil {
		t.Error("invalid loss should error")
	}
	for _, m := range []LossModel{
		{Burst: true, PGoodToBad: -0.1, PBadToGood: 0.2, BadLoss: 0.3},
		{Burst: true, PGoodToBad: 0.1, PBadToGood: 1.5, BadLoss: 0.3},
		{Burst: true, PGoodToBad: math.NaN(), PBadToGood: 0.2, BadLoss: 0.3},
		{Burst: true, PGoodToBad: 0.1, PBadToGood: 0.2, BadLoss: -0.3},
	} {
		if _, err := NewLink(&sim, LinkConfig{Rate: unit.Mbps, Loss: m}, nil); err == nil {
			t.Errorf("loss model %+v is not a probability model, should error", m)
		}
	}
}

// TestBurstyLossIsAChannel holds BurstyLoss to a valid Gilbert–Elliott
// model at every stationary loss in (0, 1], with the channel's stationary
// loss (bad-state share × in-burst loss, plus the i.i.d. part) never
// falling as the asked-for loss grows, and close to it on real lines.
func TestBurstyLossIsAChannel(t *testing.T) {
	var sim Simulator
	prev := 0.0
	for i := 1; i <= 1000; i++ {
		l := unit.LossRate(float64(i) / 1000)
		m := BurstyLoss(l)
		if _, err := NewLink(&sim, LinkConfig{Rate: unit.Mbps, Loss: m}, nil); err != nil {
			t.Fatalf("loss %v: %v", l, err)
		}
		fracBad := m.PGoodToBad / (m.PGoodToBad + m.PBadToGood)
		stationary := 1 - (1-float64(m.Rate))*(1-fracBad*float64(m.BadLoss))
		if stationary < prev {
			t.Fatalf("loss %v: stationary loss %.6f below %.6f at the step before", l, stationary, prev)
		}
		prev = stationary
		if l <= 0.15 && math.Abs(stationary-float64(l)) > 0.05*float64(l) {
			t.Errorf("loss %v: stationary loss %.6f, want within 5%%", l, stationary)
		}
	}
}

func TestLinkDeliveryTiming(t *testing.T) {
	// 1 Mbps link, 10 ms delay, one 1210-byte packet (1250 B wire with the
	// 40 B header): serialization = 1250*8/1e6 = 10 ms; arrival at 20 ms.
	var sim Simulator
	l := mustLink(t, &sim, LinkConfig{Rate: unit.MbpsOf(1), Delay: 0.010}, nil)
	var arrived float64 = -1
	l.SetReceiver(func(p *Packet) { arrived = sim.Now() })
	l.Send(&Packet{Size: 1210})
	sim.Run()
	if math.Abs(arrived-0.020) > 1e-9 {
		t.Errorf("arrival at %v, want 0.020", arrived)
	}
}

func TestLinkSerializationQueueing(t *testing.T) {
	// Two equal packets back-to-back: second arrives one serialization time
	// after the first.
	var sim Simulator
	l := mustLink(t, &sim, LinkConfig{Rate: unit.MbpsOf(1), Delay: 0}, nil)
	var times []float64
	l.SetReceiver(func(p *Packet) { times = append(times, sim.Now()) })
	l.Send(&Packet{Size: 1210})
	l.Send(&Packet{Size: 1210})
	sim.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d packets", len(times))
	}
	if math.Abs(times[1]-times[0]-0.010) > 1e-9 {
		t.Errorf("spacing = %v, want 0.010", times[1]-times[0])
	}
}

func TestLinkDropTail(t *testing.T) {
	var sim Simulator
	l := mustLink(t, &sim, LinkConfig{
		Rate:  unit.MbpsOf(1),
		Queue: 3000 * unit.Byte, // admits two 1460 B packets, not three
	}, nil)
	delivered := 0
	l.SetReceiver(func(p *Packet) { delivered++ })
	for i := 0; i < 3; i++ {
		l.Send(&Packet{Size: 1460})
	}
	sim.Run()
	st := l.Stats()
	if delivered != 2 || st.Delivered != 2 {
		t.Errorf("delivered = %d, want 2", delivered)
	}
	if st.DroppedQueue != 1 {
		t.Errorf("queue drops = %d, want 1", st.DroppedQueue)
	}
	if st.Sent != 3 {
		t.Errorf("sent = %d, want 3", st.Sent)
	}
	if got := st.LossRate(); math.Abs(float64(got)-1.0/3) > 1e-12 {
		t.Errorf("LossRate = %v, want 1/3", got)
	}
}

func TestLinkRandomLossConverges(t *testing.T) {
	var sim Simulator
	rng := randx.New(11).Split("loss")
	l := mustLink(t, &sim, LinkConfig{
		Rate:  unit.MbpsOf(1000),
		Queue: unit.GB,
		Loss:  LossModel{Rate: 0.05},
	}, rng)
	delivered := 0
	l.SetReceiver(func(p *Packet) { delivered++ })
	n := 20000
	for i := 0; i < n; i++ {
		l.Send(&Packet{Size: 100})
	}
	sim.Run()
	frac := 1 - float64(delivered)/float64(n)
	if math.Abs(frac-0.05) > 0.01 {
		t.Errorf("observed loss %v, want ~0.05", frac)
	}
	if l.Stats().DroppedQueue != 0 {
		t.Errorf("unexpected queue drops: %d", l.Stats().DroppedQueue)
	}
}

func TestGilbertElliottStationaryLoss(t *testing.T) {
	model := LossModel{
		Burst:      true,
		PGoodToBad: 0.01,
		PBadToGood: 0.19,
		BadLoss:    0.5,
	}
	// Stationary bad fraction = 0.01/0.20 = 0.05 → loss = 0.05*0.5 = 0.025.
	want := 0.025

	var sim Simulator
	rng := randx.New(12).Split("ge")
	l := mustLink(t, &sim, LinkConfig{
		Rate:  unit.MbpsOf(1000),
		Queue: unit.GB,
		Loss:  model,
	}, rng)
	delivered := 0
	l.SetReceiver(func(p *Packet) { delivered++ })
	n := 100000
	for i := 0; i < n; i++ {
		l.Send(&Packet{Size: 100})
	}
	sim.Run()
	frac := 1 - float64(delivered)/float64(n)
	if math.Abs(frac-want) > 0.005 {
		t.Errorf("observed burst loss %v, want ~%v", frac, want)
	}
}

func TestDefaultQueue(t *testing.T) {
	if got := DefaultQueue(unit.KbpsOf(100)); got != 16*unit.KB {
		t.Errorf("slow link queue = %v, want 16 kB floor", got)
	}
	if got := DefaultQueue(unit.MbpsOf(10)); got != 125*unit.KB {
		t.Errorf("10 Mbps queue = %v, want 125 kB (1 BDP at 100 ms)", got)
	}
	if got := DefaultQueue(unit.Gbps * 10); got != 4*unit.MB {
		t.Errorf("fast link queue = %v, want 4 MB ceiling", got)
	}
}

func TestFlowEndpoint(t *testing.T) {
	f := Flow{Src: Endpoint{Host: "a", Port: 1}, Dst: Endpoint{Host: "b", Port: 2}}
	if f.String() != "a:1->b:2" {
		t.Errorf("Flow.String() = %q", f.String())
	}
	r := f.Reverse()
	if r.Src.Host != "b" || r.Dst.Host != "a" {
		t.Errorf("Reverse = %v", r)
	}
	// Flows must be usable as map keys (gopacket-style).
	m := map[Flow]int{f: 1, r: 2}
	if m[f] != 1 || m[r] != 2 {
		t.Error("Flow map keying broken")
	}
}
