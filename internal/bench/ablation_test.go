package bench

import (
	"runtime"
	"testing"

	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/netsim"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/synth"
	"github.com/nwca/broadband/internal/unit"
)

// Benches outside the spec registry: extra sizes of a spec's workload,
// the extension analyses, and ablations of the design choices DESIGN.md
// calls out, which report a custom metric no spec records.

func BenchmarkMatcher200(b *testing.B)  { benchMatcher(200)(b) }
func BenchmarkMatcher5000(b *testing.B) { benchMatcher(5000)(b) }

// Extension analyses (beyond the paper's artifacts), on the run_all world.

func BenchmarkExtAUsageCaps(b *testing.B)        { benchArtifact("Ext. A")(b) }
func BenchmarkExtBUserCategories(b *testing.B)   { benchArtifact("Ext. B")(b) }
func BenchmarkExtCDesignComparison(b *testing.B) { benchArtifact("Ext. C")(b) }

// benchBuildWorld measures world generation at GOMAXPROCS procs (0 keeps
// the default); output is byte-identical across settings, so the benches
// differ only in wall-clock.
func benchBuildWorld(b *testing.B, procs int) {
	if procs > 0 {
		prev := runtime.GOMAXPROCS(procs)
		b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	for i := 0; i < b.N; i++ {
		w, err := synth.Build(synth.Config{
			Seed: uint64(i + 1), Users: 600, FCCUsers: 120, Days: 1,
			SwitchTarget: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(w.Data.Users) == 0 {
			b.Fatal("empty world")
		}
	}
}

// BenchmarkBuildWorldSequential pins the GOMAXPROCS=1 baseline.
func BenchmarkBuildWorldSequential(b *testing.B) { benchBuildWorld(b, 1) }

// BenchmarkBuildWorldParallel runs at the default GOMAXPROCS.
func BenchmarkBuildWorldParallel(b *testing.B) { benchBuildWorld(b, 0) }

// benchCaliper runs the capacity matching experiment at a given caliper
// width and reports the matched-pair yield as a custom metric.
func benchCaliper(b *testing.B, caliper float64) {
	d, err := runAllWorld()
	if err != nil {
		b.Fatal(err)
	}
	dasu := d.Panel().Where(dataset.ColVantage(dataset.VantageDasu))
	treated := dasu.Where(dataset.ColCapacityBetween(6.4e6, 12.8e6))
	control := dasu.Where(dataset.ColCapacityBetween(3.2e6, 6.4e6))
	m := core.Matcher{
		Caliper: caliper,
		Confounders: []core.Confounder{
			core.ConfounderRTT(), core.ConfounderLoss(), core.ConfounderAccessPrice(),
		},
	}
	pairs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := m.Match(treated, control, randx.New(uint64(i)))
		pairs = len(ps)
	}
	b.ReportMetric(float64(pairs), "pairs")
}

// BenchmarkAblationCaliperPaper uses the paper's 25% caliper.
func BenchmarkAblationCaliperPaper(b *testing.B) { benchCaliper(b, 0.25) }

// BenchmarkAblationCaliperTight uses a 10% caliper: better balance, fewer
// comparisons (the trade-off Sec. 3.2 discusses).
func BenchmarkAblationCaliperTight(b *testing.B) { benchCaliper(b, 0.10) }

// BenchmarkAblationCaliperLoose uses a 50% caliper.
func BenchmarkAblationCaliperLoose(b *testing.B) { benchCaliper(b, 0.50) }

// BenchmarkFluidVsPacketAgreement cross-validates the two simulators: a
// single saturating fluid flow and the packet TCP test must land in the
// same throughput regime on the same line. Reported as the ratio metric.
func BenchmarkFluidVsPacketAgreement(b *testing.B) {
	line := netsim.AccessLine{
		Down: netsim.LinkConfig{Rate: unit.MbpsOf(8), Delay: 0.02, Loss: netsim.LossModel{Rate: 0.0005}},
		Up:   netsim.LinkConfig{Rate: unit.MbpsOf(1), Delay: 0.02},
	}
	ratio := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, err := netsim.RunNDT(line, netsim.NDTConfig{Duration: 8, SkipUp: true}, randx.New(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		flow := &netsim.FluidFlow{Volume: unit.GB, Cap: 0}
		fl, err := netsim.FluidSim{Capacity: unit.MbpsOf(8)}.Run([]*netsim.FluidFlow{flow}, 8, nil)
		if err != nil {
			b.Fatal(err)
		}
		var moved unit.ByteSize
		for _, c := range fl.Counters {
			moved += c
		}
		fluidRate := moved.RateOver(8)
		ratio = float64(pkt.DownloadRate) / float64(fluidRate)
	}
	b.ReportMetric(ratio, "pkt/fluid")
}
