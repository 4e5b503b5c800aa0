package netsim

import (
	"math"
	"testing"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// buildPath wires a data link and an ACK link between a sender and receiver
// and returns them ready to start.
func buildPath(t *testing.T, sim *Simulator, dataCfg, ackCfg LinkConfig, limit int64, rng *randx.Source) (*TCPSender, *TCPReceiver) {
	t.Helper()
	var dataRng, ackRng *randx.Source
	if rng != nil {
		dataRng, ackRng = rng.Split("data"), rng.Split("ack")
	}
	data, err := NewLink(sim, dataCfg, dataRng)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := NewLink(sim, ackCfg, ackRng)
	if err != nil {
		t.Fatal(err)
	}
	flow := Flow{Src: Endpoint{Host: "s", Port: 1}, Dst: Endpoint{Host: "c", Port: 2}}
	snd, err := NewTCPSender(sim, data, flow, limit)
	if err != nil {
		t.Fatal(err)
	}
	rcv := NewTCPReceiver(sim, ack, flow)
	data.SetReceiver(rcv.OnData)
	ack.SetReceiver(snd.OnAck)
	return snd, rcv
}

func cleanAck() LinkConfig {
	return LinkConfig{Rate: unit.MbpsOf(100), Delay: 0.02, Queue: unit.MB}
}

func TestTCPValidation(t *testing.T) {
	var sim Simulator
	data, _ := NewLink(&sim, LinkConfig{Rate: unit.Mbps}, nil)
	if _, err := NewTCPSender(nil, data, Flow{}, 0); err == nil {
		t.Error("nil simulator should error")
	}
	if _, err := NewTCPSender(&sim, nil, Flow{}, 0); err == nil {
		t.Error("nil link should error")
	}
	if _, err := NewTCPSender(&sim, data, Flow{}, -1); err == nil {
		t.Error("negative size should error")
	}
}

func TestTCPBoundedTransferCompletes(t *testing.T) {
	var sim Simulator
	const volume = 500_000
	snd, rcv := buildPath(t, &sim,
		LinkConfig{Rate: unit.MbpsOf(10), Delay: 0.02, Queue: unit.MB},
		cleanAck(), volume, nil)
	completed := -1.0
	snd.SetOnComplete(func() { completed = sim.Now() })
	snd.Start()
	sim.RunUntil(60)
	if !snd.Done() {
		t.Fatal("transfer did not complete")
	}
	if completed <= 0 {
		t.Fatal("completion callback not invoked")
	}
	if snd.AckedBytes() != volume {
		t.Errorf("acked %d bytes, want %d", snd.AckedBytes(), volume)
	}
	if rcv.ReceivedBytes() != volume {
		t.Errorf("received %d bytes, want %d", rcv.ReceivedBytes(), volume)
	}
	// 500 kB at 10 Mbps is 0.4 s of serialization plus slow-start ramp; it
	// must finish well before 5 s on a clean 40 ms path.
	if completed > 5 {
		t.Errorf("transfer took %v s, suspiciously slow", completed)
	}
}

func TestTCPSaturatesCleanLink(t *testing.T) {
	// On a clean link the steady-state goodput should approach capacity
	// (within ~15%, allowing for slow start and header overhead).
	for _, mbps := range []float64{2, 10, 50} {
		var sim Simulator
		snd, _ := buildPath(t, &sim,
			LinkConfig{Rate: unit.MbpsOf(mbps), Delay: 0.02, Queue: DefaultQueue(unit.MbpsOf(mbps))},
			cleanAck(), 0, nil)
		snd.Start()
		sim.RunUntil(12)
		got := snd.Goodput(12).Mbps()
		if got < 0.8*mbps || got > mbps {
			t.Errorf("%v Mbps link: goodput %v Mbps", mbps, got)
		}
	}
}

func TestTCPThroughputDecreasesWithLoss(t *testing.T) {
	run := func(loss float64) float64 {
		var sim Simulator
		rng := randx.New(77)
		snd, _ := buildPath(t, &sim,
			LinkConfig{Rate: unit.MbpsOf(50), Delay: 0.04, Queue: unit.MB,
				Loss: LossModel{Rate: unit.LossRate(loss)}},
			cleanAck(), 0, rng)
		snd.Start()
		sim.RunUntil(30)
		return snd.Goodput(30).Mbps()
	}
	clean := run(0)
	light := run(0.001)
	heavy := run(0.02)
	if !(clean > light && light > heavy) {
		t.Errorf("throughput ordering violated: clean=%v light=%v heavy=%v", clean, light, heavy)
	}
	if heavy > 0.5*clean {
		t.Errorf("2%% loss should cost far more than half the throughput: clean=%v heavy=%v", clean, heavy)
	}
}

func TestTCPThroughputDecreasesWithRTT(t *testing.T) {
	run := func(delay float64) float64 {
		var sim Simulator
		rng := randx.New(78)
		ack := cleanAck()
		ack.Delay = delay
		snd, _ := buildPath(t, &sim,
			LinkConfig{Rate: unit.MbpsOf(50), Delay: delay, Queue: 64 * unit.KB,
				Loss: LossModel{Rate: 0.003}},
			ack, 0, rng)
		snd.Start()
		sim.RunUntil(30)
		return snd.Goodput(30).Mbps()
	}
	short := run(0.01)
	long := run(0.3)
	if short <= long {
		t.Errorf("throughput should fall with RTT: 20ms→%v, 600ms→%v", short, long)
	}
}

func TestTCPAgreesWithMathisOrder(t *testing.T) {
	// Under moderate random loss, simulated goodput should be within a
	// factor of ~2.5 of the Mathis bound (the model ignores timeouts and
	// slow start; we only require order-of-magnitude agreement).
	var sim Simulator
	rng := randx.New(79)
	loss := 0.005
	delay := 0.05
	snd, _ := buildPath(t, &sim,
		LinkConfig{Rate: unit.MbpsOf(200), Delay: delay, Queue: unit.MB,
			Loss: LossModel{Rate: unit.LossRate(loss)}},
		LinkConfig{Rate: unit.MbpsOf(200), Delay: delay, Queue: unit.MB}, 0, rng)
	snd.Start()
	sim.RunUntil(40)
	got := snd.Goodput(40).Mbps()
	rtt := 2 * delay
	bound := MathisThroughput(1460, rtt, unit.LossRate(loss)).Mbps()
	if got > bound*1.2 {
		t.Errorf("goodput %v Mbps exceeds Mathis bound %v", got, bound)
	}
	if got < bound/3 {
		t.Errorf("goodput %v Mbps far below Mathis bound %v", got, bound)
	}
}

func TestTCPRecoversViaRetransmission(t *testing.T) {
	var sim Simulator
	rng := randx.New(80)
	const volume = 2_000_000
	snd, rcv := buildPath(t, &sim,
		LinkConfig{Rate: unit.MbpsOf(20), Delay: 0.03, Queue: 128 * unit.KB,
			Loss: LossModel{Rate: 0.01}},
		cleanAck(), volume, rng)
	snd.Start()
	sim.RunUntil(120)
	if !snd.Done() {
		t.Fatalf("lossy transfer did not complete; acked %d/%d", snd.AckedBytes(), volume)
	}
	if rcv.ReceivedBytes() != volume {
		t.Errorf("receiver got %d bytes, want %d (reliability violated)", rcv.ReceivedBytes(), volume)
	}
	if snd.Retransmits() == 0 {
		t.Error("expected retransmissions on a 1% lossy path")
	}
}

func TestTCPTimeoutPath(t *testing.T) {
	// Brutal loss forces RTO-based recovery; the transfer must still finish.
	var sim Simulator
	rng := randx.New(81)
	const volume = 100_000
	snd, rcv := buildPath(t, &sim,
		LinkConfig{Rate: unit.MbpsOf(5), Delay: 0.05, Queue: 64 * unit.KB,
			Loss: LossModel{Rate: 0.15}},
		LinkConfig{Rate: unit.MbpsOf(5), Delay: 0.05, Queue: 64 * unit.KB,
			Loss: LossModel{Rate: 0.15}}, volume, rng)
	snd.Start()
	sim.RunUntil(600)
	if !snd.Done() {
		t.Fatalf("transfer under 15%% loss did not complete; acked %d", snd.AckedBytes())
	}
	if rcv.ReceivedBytes() != volume {
		t.Errorf("receiver got %d, want %d", rcv.ReceivedBytes(), volume)
	}
	if snd.Timeouts() == 0 {
		t.Error("expected at least one RTO under 15% loss")
	}
}

func TestTCPSRTTTracksPath(t *testing.T) {
	var sim Simulator
	snd, _ := buildPath(t, &sim,
		LinkConfig{Rate: unit.MbpsOf(10), Delay: 0.05, Queue: 32 * unit.KB},
		LinkConfig{Rate: unit.MbpsOf(10), Delay: 0.05, Queue: 32 * unit.KB}, 0, nil)
	snd.Start()
	sim.RunUntil(10)
	// Base RTT 100 ms plus queueing; SRTT must be at least the base and not
	// wildly above base+max queueing delay.
	if snd.SRTT() < 0.1 {
		t.Errorf("SRTT %v below propagation RTT", snd.SRTT())
	}
	if snd.SRTT() > 0.5 {
		t.Errorf("SRTT %v implausibly high for a 32 kB buffer", snd.SRTT())
	}
}

func TestMathisThroughput(t *testing.T) {
	// 1460 B MSS, 100 ms RTT, 1% loss → 1460*8/0.1 * 12.2 ≈ 1.42 Mbps.
	got := MathisThroughput(1460, 0.1, 0.01)
	want := 1460.0 * 8 / 0.1 * 1.22 / 0.1
	if math.Abs(got.BitsPerSecond()-want) > 1 {
		t.Errorf("Mathis = %v, want %v", got.BitsPerSecond(), want)
	}
	if !math.IsInf(MathisThroughput(1460, 0.1, 0).BitsPerSecond(), 1) {
		t.Error("zero loss should be unbounded")
	}
	if MathisThroughput(1460, 0, 0.01) != 0 || MathisThroughput(0, 0.1, 0.01) != 0 {
		t.Error("degenerate inputs should be 0")
	}
	// Monotonicity: worse loss → lower bound; longer RTT → lower bound.
	if MathisThroughput(1460, 0.1, 0.04) >= MathisThroughput(1460, 0.1, 0.01) {
		t.Error("Mathis must decrease with loss")
	}
	if MathisThroughput(1460, 0.2, 0.01) >= MathisThroughput(1460, 0.1, 0.01) {
		t.Error("Mathis must decrease with RTT")
	}
}
