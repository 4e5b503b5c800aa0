package netsim

import (
	"fmt"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// LoadedRTTResult reports a latency-under-load (bufferbloat) measurement:
// the RTT of small probes while a saturating TCP download fills the
// downstream queue. The FCC/SamKnows panels measure exactly this; it is
// the drop-tail buffer, not the propagation path, that dominates the
// loaded latency of over-buffered residential gear.
type LoadedRTTResult struct {
	IdleRTT    float64 // probe RTT on the idle line, seconds
	LoadedRTT  float64 // mean probe RTT during the saturating download
	Inflation  float64 // LoadedRTT / IdleRTT
	Throughput unit.Bitrate
	Probes     int // probes that completed under load
}

// MeasureLoadedRTT saturates the downstream link with a TCP transfer and
// probes the round trip every 200 ms, reporting the latency inflation the
// buffer causes. Probes begin after a 2-second warm-up so slow start does
// not dilute the steady-state figure.
func MeasureLoadedRTT(line AccessLine, duration float64, rng *randx.Source) (LoadedRTTResult, error) {
	if err := line.Validate(); err != nil {
		return LoadedRTTResult{}, err
	}
	if duration <= 0 {
		duration = 10
	}
	idle, err := measureRTT(line, 5)
	if err != nil {
		return LoadedRTTResult{}, err
	}

	sim := &Simulator{}
	down, err := NewLink(sim, line.Down, rng.Split("down"))
	if err != nil {
		return LoadedRTTResult{}, err
	}
	up, err := NewLink(sim, line.Up, rng.Split("up"))
	if err != nil {
		return LoadedRTTResult{}, err
	}

	flow := Flow{Src: Endpoint{Host: "server", Port: 5001}, Dst: Endpoint{Host: "client", Port: 40001}}
	sender, err := NewTCPSender(sim, down, flow, 0)
	if err != nil {
		return LoadedRTTResult{}, err
	}
	recv := NewTCPReceiver(sim, up, flow)

	var rttSum float64
	var rttCount int
	const warmup = 2.0

	down.SetReceiver(func(p *Packet) {
		if p.Probe {
			// Echo arriving back at the client.
			if sim.Now() >= warmup {
				rttSum += sim.Now() - p.SentAt
				rttCount++
			}
			return
		}
		recv.OnData(p)
	})
	up.SetReceiver(func(p *Packet) {
		if p.Probe {
			// Server echoes the probe down the loaded link.
			down.Send(&Packet{Flow: p.Flow.Reverse(), Size: p.Size, SentAt: p.SentAt, Probe: true})
			return
		}
		sender.OnAck(p)
	})

	// Probe train every 200 ms for the whole test.
	for t := 0.2; t < duration; t += 0.2 {
		sim.At(t, func() {
			up.Send(&Packet{Size: 64 * unit.Byte, SentAt: sim.Now(), Probe: true})
		})
	}
	sender.Start()
	sim.RunUntil(duration)

	if rttCount == 0 {
		return LoadedRTTResult{}, fmt.Errorf("netsim: no probe survived the loaded line")
	}
	res := LoadedRTTResult{
		IdleRTT:    idle,
		LoadedRTT:  rttSum / float64(rttCount),
		Throughput: sender.Goodput(duration),
		Probes:     rttCount,
	}
	if res.IdleRTT > 0 {
		res.Inflation = res.LoadedRTT / res.IdleRTT
	}
	return res, nil
}
