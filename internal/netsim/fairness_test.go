package netsim

import (
	"math"
	"testing"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// TestTCPFairnessTwoFlows validates the congestion-control substrate
// against the property the fluid simulator assumes: two long-lived TCP
// flows with equal RTTs sharing a bottleneck converge to approximately
// equal shares.
func TestTCPFairnessTwoFlows(t *testing.T) {
	var sim Simulator
	rng := randx.New(21)
	bottleneck, err := NewLink(&sim, LinkConfig{
		Rate:  unit.MbpsOf(10),
		Delay: 0.02,
		Queue: DefaultQueue(unit.MbpsOf(10)),
		Loss:  LossModel{Rate: 0.0002},
	}, rng.Split("link"))
	if err != nil {
		t.Fatal(err)
	}
	ack, err := NewLink(&sim, LinkConfig{Rate: unit.MbpsOf(100), Delay: 0.02, Queue: unit.MB}, nil)
	if err != nil {
		t.Fatal(err)
	}

	flows := []Flow{
		{Src: Endpoint{Host: "s1", Port: 1}, Dst: Endpoint{Host: "c", Port: 10}},
		{Src: Endpoint{Host: "s2", Port: 2}, Dst: Endpoint{Host: "c", Port: 11}},
	}
	senders := make([]*TCPSender, 2)
	receivers := make([]*TCPReceiver, 2)
	for i, f := range flows {
		s, err := NewTCPSender(&sim, bottleneck, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		senders[i] = s
		receivers[i] = NewTCPReceiver(&sim, ack, f)
	}
	// Demultiplex by flow (the gopacket-style comparable Flow keys).
	bottleneck.SetReceiver(func(p *Packet) {
		for i, f := range flows {
			if p.Flow == f {
				receivers[i].OnData(p)
				return
			}
		}
	})
	ack.SetReceiver(func(p *Packet) {
		for i, f := range flows {
			if p.Flow == f.Reverse() {
				senders[i].OnAck(p)
				return
			}
		}
	})
	senders[0].Start()
	// The second flow joins two seconds later and must still converge.
	sim.After(2, senders[1].Start)
	sim.RunUntil(42)

	// Measure goodput over the shared window [2, 42].
	g0 := float64(senders[0].AckedBytes()) * 8 / 42
	g1 := float64(senders[1].AckedBytes()) * 8 / 40
	total := (g0 + g1) / 1e6
	if total < 7.5 || total > 10.5 {
		t.Errorf("two flows should fill the 10 Mbps link: total %.2f Mbps", total)
	}
	// Jain's fairness index for two flows: 1 = perfect, 0.5 = one starved.
	jain := (g0 + g1) * (g0 + g1) / (2 * (g0*g0 + g1*g1))
	if jain < 0.8 {
		t.Errorf("fairness index %.3f (flows %.2f vs %.2f Mbps)", jain, g0/1e6, g1/1e6)
	}
	if math.Min(g0, g1) <= 0 {
		t.Error("a flow starved completely")
	}
}
