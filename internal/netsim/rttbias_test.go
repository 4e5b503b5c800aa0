package netsim

import (
	"testing"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// TestTCPRTTUnfairness validates the classic TCP property that a
// shorter-RTT flow out-competes a longer-RTT flow at a shared bottleneck —
// throughput scales roughly inversely with RTT under synchronized loss.
func TestTCPRTTUnfairness(t *testing.T) {
	var sim Simulator
	rng := randx.New(31)
	bottleneck, err := NewLink(&sim, LinkConfig{
		Rate:  unit.MbpsOf(10),
		Delay: 0.005,
		Queue: 64 * unit.KB, // a small buffer keeps losses frequent and shared
		Loss:  LossModel{Rate: 0.0005},
	}, rng.Split("link"))
	if err != nil {
		t.Fatal(err)
	}
	// Two return paths with very different delays: total base RTTs of
	// ≈20 ms and ≈210 ms.
	fastAck, err := NewLink(&sim, LinkConfig{Rate: unit.MbpsOf(100), Delay: 0.005, Queue: unit.MB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	slowAck, err := NewLink(&sim, LinkConfig{Rate: unit.MbpsOf(100), Delay: 0.1, Queue: unit.MB}, nil)
	if err != nil {
		t.Fatal(err)
	}

	fastFlow := Flow{Src: Endpoint{Host: "near", Port: 1}, Dst: Endpoint{Host: "c", Port: 10}}
	slowFlow := Flow{Src: Endpoint{Host: "far", Port: 2}, Dst: Endpoint{Host: "c", Port: 11}}
	fastSnd, _ := NewTCPSender(&sim, bottleneck, fastFlow, 0)
	slowSnd, _ := NewTCPSender(&sim, bottleneck, slowFlow, 0)
	fastRcv := NewTCPReceiver(&sim, fastAck, fastFlow)
	slowRcv := NewTCPReceiver(&sim, slowAck, slowFlow)
	bottleneck.SetReceiver(func(p *Packet) {
		if p.Flow == fastFlow {
			fastRcv.OnData(p)
		} else {
			slowRcv.OnData(p)
		}
	})
	fastAck.SetReceiver(fastSnd.OnAck)
	slowAck.SetReceiver(slowSnd.OnAck)

	fastSnd.Start()
	slowSnd.Start()
	sim.RunUntil(60)

	fast := float64(fastSnd.AckedBytes())
	slow := float64(slowSnd.AckedBytes())
	if slow <= 0 {
		t.Fatal("long-RTT flow starved completely")
	}
	ratio := fast / slow
	if ratio < 1.5 {
		t.Errorf("short-RTT flow should clearly out-compete (×%.2f): fast %.1f MB vs slow %.1f MB",
			ratio, fast/1e6, slow/1e6)
	}
	// Both flows remain alive; the line stays busy.
	total := (fast + slow) * 8 / 60 / 1e6
	if total < 6 {
		t.Errorf("link underutilized under competition: %.2f Mbps", total)
	}
}
