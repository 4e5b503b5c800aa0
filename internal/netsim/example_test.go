package netsim_test

import (
	"fmt"

	"github.com/nwca/broadband/internal/netsim"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// A full NDT-style measurement of a simulated 10/1 Mbps line with 40 ms of
// base RTT: throughput tests in both directions, probe RTT, loss estimate.
func ExampleRunNDT() {
	line := netsim.AccessLine{
		Down: netsim.LinkConfig{Rate: unit.MbpsOf(10), Delay: 0.02},
		Up:   netsim.LinkConfig{Rate: unit.MbpsOf(1), Delay: 0.02},
	}
	res, err := netsim.RunNDT(line, netsim.NDTConfig{Duration: 8}, randx.New(1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("download ≈ %.0f Mbps, upload ≈ %.1f Mbps, rtt ≈ %.0f ms\n",
		res.DownloadRate.Mbps(), res.UploadRate.Mbps(), res.RTT*1000)
	// Output:
	// download ≈ 9 Mbps, upload ≈ 0.8 Mbps, rtt ≈ 41 ms
}

// The fluid simulator realizes byte-counter traces: two flows sharing a
// bottleneck max-min fairly.
func ExampleFluidSim_Run() {
	a := &netsim.FluidFlow{ID: 1, Volume: 30 * unit.MB}
	b := &netsim.FluidFlow{ID: 2, Volume: 30 * unit.MB}
	res, err := netsim.FluidSim{Capacity: unit.MbpsOf(8)}.Run(
		[]*netsim.FluidFlow{a, b}, 120, nil)
	if err != nil {
		panic(err)
	}
	_, atA := a.Finished()
	var moved unit.ByteSize
	for _, c := range res.Counters {
		moved += c
	}
	fmt.Printf("both done at %.0f s, moved %s\n", atA, moved)
	// Output:
	// both done at 60 s, moved 60.00 MB
}

// The Mathis bound couples line quality to achievable TCP throughput.
func ExampleMathisThroughput() {
	clean := netsim.MathisThroughput(1460*unit.Byte, 0.04, 0.0001)
	lossy := netsim.MathisThroughput(1460*unit.Byte, 0.04, 0.01)
	fmt.Printf("0.01%% loss: %.0f Mbps; 1%% loss: %.1f Mbps\n", clean.Mbps(), lossy.Mbps())
	// Output:
	// 0.01% loss: 36 Mbps; 1% loss: 3.6 Mbps
}
