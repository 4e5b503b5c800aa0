package netsim

import (
	"fmt"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// AccessLine describes a full-duplex residential access path between a
// subscriber and the nearest measurement server: the downstream and upstream
// link configurations. One-way delays on the two directions sum (with
// serialization) to the measured RTT.
type AccessLine struct {
	Down LinkConfig
	Up   LinkConfig
}

// Validate checks that both directions are usable.
func (a AccessLine) Validate() error {
	if a.Down.Rate <= 0 || a.Up.Rate <= 0 {
		return fmt.Errorf("netsim: access line needs positive rates (down %v, up %v)", a.Down.Rate, a.Up.Rate)
	}
	if a.Down.Delay < 0 || a.Up.Delay < 0 {
		return fmt.Errorf("netsim: access line has negative delay")
	}
	return nil
}

// NDTConfig tunes a simulated NDT measurement run.
type NDTConfig struct {
	Duration float64 // length of each throughput test in virtual seconds (default 10)
	SkipUp   bool    // skip the upload test (halves simulation cost when unused)
}

// ndtProbes is the length of the idle-line RTT probe train.
const ndtProbes = 10

func (c NDTConfig) withDefaults() NDTConfig {
	if c.Duration <= 0 {
		c.Duration = 10
	}
	return c
}

// NDTResult is what a Network-Diagnostic-Tool-style test reports: the
// saturating TCP throughput in each direction, the average RTT of idle-line
// probes, and the packet-loss rate.
//
// ChannelLoss is the loss attributable to the line itself (random/burst
// channel drops), which characterizes the service; TotalLoss additionally
// includes queue drops self-induced by the saturating test, which is what a
// real NDT run conflates. The dataset pipeline records ChannelLoss.
type NDTResult struct {
	DownloadRate unit.Bitrate
	UploadRate   unit.Bitrate
	RTT          float64 // seconds
	ChannelLoss  unit.LossRate
	TotalLoss    unit.LossRate
	DownStats    LinkStats
	UpStats      LinkStats
}

// RunNDT simulates a full NDT measurement (RTT probe train, bulk TCP
// download, bulk TCP upload) over the given access line. rng drives the
// line's stochastic loss; pass a dedicated split so results are reproducible.
func RunNDT(line AccessLine, cfg NDTConfig, rng *randx.Source) (NDTResult, error) {
	if err := line.Validate(); err != nil {
		return NDTResult{}, err
	}
	cfg = cfg.withDefaults()

	var res NDTResult

	// Phase 1: RTT probes on an idle line. Probes are small (64 B), sent
	// 100 ms apart from the client; the server echoes immediately.
	rtt, err := measureRTT(line, ndtProbes)
	if err != nil {
		return NDTResult{}, err
	}
	res.RTT = rtt

	// Phase 2: bulk download (server → client over the Down link, ACKs on Up).
	down, err := measureThroughput(line.Down, line.Up, cfg, rng.Split("ndt-down"))
	if err != nil {
		return NDTResult{}, err
	}
	res.DownloadRate = down.rate
	res.DownStats = down.dataStats

	// Phase 3: bulk upload (client → server over the Up link, ACKs on Down).
	if !cfg.SkipUp {
		up, err := measureThroughput(line.Up, line.Down, cfg, rng.Split("ndt-up"))
		if err != nil {
			return NDTResult{}, err
		}
		res.UploadRate = up.rate
		res.UpStats = up.dataStats
	}

	// Loss accounting from the download direction (NDT's C2S/S2C loss is
	// dominated by the data-bearing path).
	st := res.DownStats
	if st.Sent > 0 {
		res.ChannelLoss = unit.LossRate(float64(st.DroppedLoss) / float64(st.Sent))
		res.TotalLoss = st.LossRate()
	}
	return res, nil
}

// measureRTT sends probe packets over an otherwise idle line and returns
// the mean round-trip time. Probe links carry no loss process: RTT is
// averaged over successful probes only, and queueing is the interesting
// effect.
func measureRTT(line AccessLine, probes int) (float64, error) {
	sim := &Simulator{}
	up, err := NewLink(sim, line.Up, nil)
	if err != nil {
		return 0, err
	}
	down, err := NewLink(sim, line.Down, nil)
	if err != nil {
		return 0, err
	}

	var total float64
	var got int
	down.SetReceiver(func(p *Packet) {
		total += sim.Now() - p.SentAt
		got++
	})
	up.SetReceiver(func(p *Packet) {
		// Server echo: turn the probe around instantly.
		down.Send(&Packet{Flow: p.Flow.Reverse(), Size: p.Size, SentAt: p.SentAt, Probe: true})
	})
	for i := 0; i < probes; i++ {
		delay := 0.1 * float64(i)
		sim.At(delay, func() {
			up.Send(&Packet{Size: 64 * unit.Byte, SentAt: sim.Now(), Probe: true})
		})
	}
	sim.Run()
	if got == 0 {
		return 0, fmt.Errorf("netsim: no probe completed")
	}
	return total / float64(got), nil
}

type throughputOutcome struct {
	rate      unit.Bitrate
	dataStats LinkStats
}

// measureThroughput runs a time-bounded saturating TCP transfer over the
// data link with acknowledgments on the ack link, and reports goodput.
func measureThroughput(dataCfg, ackCfg LinkConfig, cfg NDTConfig, rng *randx.Source) (throughputOutcome, error) {
	sim := &Simulator{}
	data, err := NewLink(sim, dataCfg, rng.Split("data"))
	if err != nil {
		return throughputOutcome{}, err
	}
	// The ACK path carries 40-byte headers; its loss still matters (lost
	// ACKs delay recovery) so it keeps its configured loss model.
	ack, err := NewLink(sim, ackCfg, rng.Split("ack"))
	if err != nil {
		return throughputOutcome{}, err
	}

	flow := Flow{
		Src: Endpoint{Host: "server", Port: 5001},
		Dst: Endpoint{Host: "client", Port: 40001},
	}
	sender, err := NewTCPSender(sim, data, flow, 0)
	if err != nil {
		return throughputOutcome{}, err
	}
	recv := NewTCPReceiver(sim, ack, flow)
	data.SetReceiver(recv.OnData)
	ack.SetReceiver(sender.OnAck)

	sender.Start()
	sim.RunUntil(cfg.Duration)
	return throughputOutcome{
		rate:      sender.Goodput(cfg.Duration),
		dataStats: data.Stats(),
	}, nil
}
