package netsim

import (
	"math"
	"testing"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// typicalLine builds a residential line: asymmetric rates, given one-way
// delays and downstream loss.
func typicalLine(down, up unit.Bitrate, oneWay float64, loss unit.LossRate) AccessLine {
	return AccessLine{
		Down: LinkConfig{Rate: down, Delay: oneWay, Loss: LossModel{Rate: loss}, Name: "down"},
		Up:   LinkConfig{Rate: up, Delay: oneWay, Name: "up"},
	}
}

func TestRunNDTCleanLine(t *testing.T) {
	line := typicalLine(unit.MbpsOf(10), unit.MbpsOf(1), 0.02, 0)
	res, err := RunNDT(line, NDTConfig{Duration: 8}, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DownloadRate.Mbps(); got < 8 || got > 10 {
		t.Errorf("download = %v Mbps, want ≈10", got)
	}
	if got := res.UploadRate.Mbps(); got < 0.75 || got > 1 {
		t.Errorf("upload = %v Mbps, want ≈1", got)
	}
	// RTT ≈ 2×20 ms plus small-probe serialization.
	if res.RTT < 0.04 || res.RTT > 0.06 {
		t.Errorf("RTT = %v, want ≈0.04", res.RTT)
	}
	if res.ChannelLoss != 0 {
		t.Errorf("channel loss = %v on a clean line", res.ChannelLoss)
	}
}

func TestRunNDTLossyLine(t *testing.T) {
	line := typicalLine(unit.MbpsOf(10), unit.MbpsOf(1), 0.02, 0.02)
	res, err := RunNDT(line, NDTConfig{Duration: 10}, randx.New(6))
	if err != nil {
		t.Fatal(err)
	}
	// Measured channel loss should approximate the configured 2%.
	if math.Abs(res.ChannelLoss.Percent()-2) > 1 {
		t.Errorf("channel loss = %v, want ≈2%%", res.ChannelLoss)
	}
	// Throughput must be visibly degraded relative to a clean line.
	clean, _ := RunNDT(typicalLine(unit.MbpsOf(10), unit.MbpsOf(1), 0.02, 0), NDTConfig{Duration: 10, SkipUp: true}, randx.New(6))
	if res.DownloadRate >= clean.DownloadRate {
		t.Errorf("lossy download %v ≥ clean download %v", res.DownloadRate, clean.DownloadRate)
	}
	if res.TotalLoss < res.ChannelLoss {
		t.Errorf("total loss %v < channel loss %v", res.TotalLoss, res.ChannelLoss)
	}
}

func TestRunNDTHighLatencySatellite(t *testing.T) {
	// Satellite-grade path: 300 ms one-way, some loss. The measured RTT
	// must reflect the configured path, and throughput must suffer.
	line := typicalLine(unit.MbpsOf(8), unit.MbpsOf(1), 0.3, 0.005)
	res, err := RunNDT(line, NDTConfig{Duration: 10, SkipUp: true}, randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.RTT < 0.6 || res.RTT > 0.65 {
		t.Errorf("satellite RTT = %v, want ≈0.6", res.RTT)
	}
	terrestrial, _ := RunNDT(typicalLine(unit.MbpsOf(8), unit.MbpsOf(1), 0.02, 0.005), NDTConfig{Duration: 10, SkipUp: true}, randx.New(7))
	if res.DownloadRate >= terrestrial.DownloadRate {
		t.Errorf("long path %v should underperform short path %v", res.DownloadRate, terrestrial.DownloadRate)
	}
}

func TestRunNDTDeterminism(t *testing.T) {
	line := typicalLine(unit.MbpsOf(20), unit.MbpsOf(2), 0.03, 0.01)
	a, err := RunNDT(line, NDTConfig{Duration: 5}, randx.New(42).Split("ndt"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNDT(line, NDTConfig{Duration: 5}, randx.New(42).Split("ndt"))
	if err != nil {
		t.Fatal(err)
	}
	if a.DownloadRate != b.DownloadRate || a.RTT != b.RTT || a.ChannelLoss != b.ChannelLoss {
		t.Errorf("NDT not deterministic: %+v vs %+v", a, b)
	}
}

func TestRunNDTValidation(t *testing.T) {
	if _, err := RunNDT(AccessLine{}, NDTConfig{}, randx.New(1)); err == nil {
		t.Error("zero-rate line should error")
	}
	bad := typicalLine(unit.MbpsOf(1), unit.MbpsOf(1), 0.02, 0)
	bad.Up.Delay = -1
	if _, err := RunNDT(bad, NDTConfig{}, randx.New(1)); err == nil {
		t.Error("negative delay should error")
	}
}

func TestNDTCapacityLadder(t *testing.T) {
	// Measured download capacity must be monotone in configured capacity —
	// the property every capacity-binned analysis in the study depends on.
	prev := 0.0
	for _, mbps := range []float64{0.5, 2, 8, 32} {
		line := typicalLine(unit.MbpsOf(mbps), unit.MbpsOf(mbps/4), 0.02, 0)
		res, err := RunNDT(line, NDTConfig{Duration: 8, SkipUp: true}, randx.New(9))
		if err != nil {
			t.Fatal(err)
		}
		got := res.DownloadRate.Mbps()
		if got <= prev {
			t.Errorf("capacity ladder broken at %v Mbps: measured %v after %v", mbps, got, prev)
		}
		if got > mbps {
			t.Errorf("measured %v exceeds configured %v", got, mbps)
		}
		prev = got
	}
}
