// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the artifact against a shared synthetic world),
// plus ablation benches for the design choices DESIGN.md calls out and
// micro-benches of the load-bearing substrates.
//
//	go test -bench=. -benchmem
package broadband_test

import (
	"fmt"
	"sync"
	"testing"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/netsim"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/synth"
	"github.com/nwca/broadband/internal/traffic"
	"github.com/nwca/broadband/internal/unit"
)

// benchWorld is generated once and shared by every artifact bench.
var (
	benchOnce  sync.Once
	benchData  *dataset.Dataset
	benchBuild error
)

func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		w, err := synth.Build(synth.Config{
			Seed: 20140705, Users: 2000, FCCUsers: 500, Days: 2,
			SwitchTarget: 350, MinPerCountry: 25,
		})
		if err != nil {
			benchBuild = err
			return
		}
		benchData = &w.Data
	})
	if benchBuild != nil {
		b.Fatal(benchBuild)
	}
	return benchData
}

// benchArtifact regenerates one paper artifact per iteration.
func benchArtifact(b *testing.B, id string) {
	d := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := broadband.Run(id, d, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

// One benchmark per table and figure (DESIGN.md per-experiment index).

func BenchmarkFig01Characteristics(b *testing.B)         { benchArtifact(b, "Fig. 1") }
func BenchmarkFig02CapacityVsUsage(b *testing.B)         { benchArtifact(b, "Fig. 2") }
func BenchmarkFig03FCCvsDasu(b *testing.B)               { benchArtifact(b, "Fig. 3") }
func BenchmarkTable01UserUpgrades(b *testing.B)          { benchArtifact(b, "Table 1") }
func BenchmarkFig04SlowFastCDF(b *testing.B)             { benchArtifact(b, "Fig. 4") }
func BenchmarkFig05UpgradeByTier(b *testing.B)           { benchArtifact(b, "Fig. 5") }
func BenchmarkTable02CapacityMatching(b *testing.B)      { benchArtifact(b, "Table 2") }
func BenchmarkFig06Longitudinal(b *testing.B)            { benchArtifact(b, "Fig. 6") }
func BenchmarkTable03AccessPrice(b *testing.B)           { benchArtifact(b, "Table 3") }
func BenchmarkTable04CaseStudy(b *testing.B)             { benchArtifact(b, "Table 4") }
func BenchmarkFig07CaseStudyCDF(b *testing.B)            { benchArtifact(b, "Fig. 7") }
func BenchmarkFig08UtilizationByTier(b *testing.B)       { benchArtifact(b, "Fig. 8") }
func BenchmarkFig09DemandByTier(b *testing.B)            { benchArtifact(b, "Fig. 9") }
func BenchmarkFig10UpgradeCostCDF(b *testing.B)          { benchArtifact(b, "Fig. 10") }
func BenchmarkTable05RegionalUpgradeCost(b *testing.B)   { benchArtifact(b, "Table 5") }
func BenchmarkTable06UpgradeCostExperiment(b *testing.B) { benchArtifact(b, "Table 6") }
func BenchmarkTable07Latency(b *testing.B)               { benchArtifact(b, "Table 7") }
func BenchmarkFig11IndiaLatency(b *testing.B)            { benchArtifact(b, "Fig. 11") }
func BenchmarkTable08PacketLoss(b *testing.B)            { benchArtifact(b, "Table 8") }
func BenchmarkFig12IndiaLoss(b *testing.B)               { benchArtifact(b, "Fig. 12") }

// Extension analyses (beyond the paper's artifacts).

func BenchmarkExtAUsageCaps(b *testing.B)        { benchArtifact(b, "Ext. A") }
func BenchmarkExtBUserCategories(b *testing.B)   { benchArtifact(b, "Ext. B") }
func BenchmarkExtCDesignComparison(b *testing.B) { benchArtifact(b, "Ext. C") }

// BenchmarkWorldGeneration measures the end-to-end dataset pipeline at a
// small scale (choice model + measurement + traffic generation per user).
func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := synth.Build(synth.Config{
			Seed: uint64(i + 1), Users: 150, FCCUsers: 30, Days: 1, SwitchTarget: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(w.Data.Users) == 0 {
			b.Fatal("empty world")
		}
	}
}

// benchBuildWorldWorkers measures world generation at a fixed worker count;
// output is byte-identical across counts, so the benches differ only in
// wall-clock.
func benchBuildWorldWorkers(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		w, err := synth.Build(synth.Config{
			Seed: uint64(i + 1), Users: 600, FCCUsers: 120, Days: 1,
			SwitchTarget: 60, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(w.Data.Users) == 0 {
			b.Fatal("empty world")
		}
	}
}

// BenchmarkBuildWorldSequential pins the Workers=1 baseline.
func BenchmarkBuildWorldSequential(b *testing.B) { benchBuildWorldWorkers(b, 1) }

// BenchmarkBuildWorldParallel uses the full GOMAXPROCS pool.
func BenchmarkBuildWorldParallel(b *testing.B) { benchBuildWorldWorkers(b, 0) }

// BenchmarkRunAllParallel measures the full registry fan-out against the
// shared bench world at the default worker count.
func BenchmarkRunAllParallel(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broadband.RunAllWorkers(d, uint64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMatcher measures the windowed nearest-neighbor matcher on synthetic
// covariates at a given population size (treated = n, control = 2n).
func benchMatcher(b *testing.B, n int) {
	rng := randx.New(uint64(n))
	p := dataset.NewPanel(3 * n)
	mk := func(count int, idBase int64) dataset.View {
		v := dataset.View{P: p}
		for i := 0; i < count; i++ {
			v.Idx = append(v.Idx, int32(p.Len()))
			p.Append(&dataset.User{
				ID:   idBase + int64(i),
				RTT:  0.01 + 0.2*rng.Float64(),
				Loss: unit.LossRate(0.002 * rng.Float64()),
			})
		}
		return v
	}
	treated := mk(n, 1)
	control := mk(2*n, int64(10*n))
	m := core.Matcher{Confounders: []core.Confounder{core.ConfounderRTT(), core.ConfounderLoss()}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(treated, control, randx.New(uint64(i)))
	}
}

func BenchmarkMatcher200(b *testing.B)  { benchMatcher(b, 200) }
func BenchmarkMatcher1000(b *testing.B) { benchMatcher(b, 1000) }
func BenchmarkMatcher5000(b *testing.B) { benchMatcher(b, 5000) }

// --- Ablation benches (design choices called out in DESIGN.md §4) ---

// benchCaliper runs the capacity matching experiment at a given caliper
// width and reports the matched-pair yield as a custom metric.
func benchCaliper(b *testing.B, caliper float64) {
	d := benchDataset(b)
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

// BenchmarkAblationExactBinomial measures the exact (incomplete-beta)
// binomial tail at matched-pair scale.
func BenchmarkAblationExactBinomial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := stats.BinomialTest(6680, 10000, 0.5, stats.TailGreater)
		if err != nil {
			b.Fatal(err)
		}
		_ = r.P
	}
}

// BenchmarkAblationNormalApproxBinomial measures the continuity-corrected
// normal approximation the exact test replaces.
func BenchmarkAblationNormalApproxBinomial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		z := (6680.0 - 0.5 - 5000) / 50
		_ = 1 - stats.NormalCDF(z)
	}
}

// BenchmarkSubstrateFluidDay measures one user-day of flow-level simulation
// (the unit of dataset generation).
func BenchmarkSubstrateFluidDay(b *testing.B) {
	g := &traffic.Generator{
		Capacity: unit.MbpsOf(10),
		Quality:  traffic.Quality{RTT: 0.04, Loss: 0.0005},
		Profile:  traffic.Profile{NeedMbps: 3},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := g.Generate(1, randx.New(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Summarize(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstratePacketNDT measures one packet-level NDT run (the
// expensive alternative the fluid model amortizes).
func BenchmarkSubstratePacketNDT(b *testing.B) {
	line := netsim.AccessLine{
		Down: netsim.LinkConfig{Rate: unit.MbpsOf(10), Delay: 0.02, Loss: netsim.LossModel{Rate: 0.002}},
		Up:   netsim.LinkConfig{Rate: unit.MbpsOf(1), Delay: 0.02},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := netsim.RunNDT(line, netsim.NDTConfig{Duration: 5, SkipUp: true}, randx.New(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		_ = res.DownloadRate
	}
}

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
		fl, err := netsim.FluidSim{Capacity: unit.MbpsOf(8), Interval: 30}.Run([]*netsim.FluidFlow{flow}, 8)
		if err != nil {
			b.Fatal(err)
		}
		fluidRate := fl.TotalBytes.RateOver(8)
		ratio = float64(pkt.DownloadRate) / float64(fluidRate)
	}
	b.ReportMetric(ratio, "pkt/fluid")
}

// Guard against the bench world failing silently under -bench=. -run=^$.
func TestBenchWorldBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("bench world generation is slow; skipped with -short")
	}
	benchOnce.Do(func() {
		w, err := synth.Build(synth.Config{
			Seed: 20140705, Users: 2000, FCCUsers: 500, Days: 2,
			SwitchTarget: 350, MinPerCountry: 25,
		})
		if err != nil {
			benchBuild = err
			return
		}
		benchData = &w.Data
	})
	if benchBuild != nil {
		t.Fatal(benchBuild)
	}
	if len(benchData.Users) == 0 {
		t.Fatal("bench world empty")
	}
	fmt.Println("bench world:", len(benchData.Users), "users")
}
