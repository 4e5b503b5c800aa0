package bench

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	broadband "github.com/nwca/broadband"
	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/golden"
	"github.com/nwca/broadband/internal/netsim"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/serve"
	"github.com/nwca/broadband/internal/synth"
	"github.com/nwca/broadband/internal/traffic"
	"github.com/nwca/broadband/internal/unit"
)

// Spec is one canonical benchmark: a stable name (the trajectory key —
// renaming one orphans its history) and a standard testing benchmark body.
type Spec struct {
	Name string
	// Smoke marks the spec as part of the reduced set CI runs on every
	// push; the full set includes everything.
	Smoke bool
	// GateAllocs marks the spec's allocs/op as part of the regression
	// contract: bbbench fails the run when it rises past the baseline by
	// more than the tolerance, same rule as ns/op. Reserved for specs
	// whose allocation count is stable enough to gate on.
	GateAllocs bool
	Run        func(b *testing.B)
}

// Measure runs one spec via testing.Benchmark and converts the result.
// It honors the -test.benchtime flag when set (cmd/bbbench wires its
// -benchtime flag through testing.Init).
func Measure(s Spec) (Result, error) {
	r := testing.Benchmark(s.Run)
	if r.N == 0 {
		return Result{}, fmt.Errorf("bench: %s failed (zero iterations)", s.Name)
	}
	res := Result{
		Name:        s.Name,
		Iters:       r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if r.Bytes > 0 && r.T > 0 {
		res.MBPerS = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
	}
	return res, nil
}

// Specs returns the canonical benchmark set in run order. Names are part
// of the trajectory contract: stable across commits so BENCH_<n>.json
// files remain comparable.
func Specs() []Spec {
	specs := []Spec{
		{Name: "world_build_150u", Smoke: true, GateAllocs: true, Run: benchWorldBuild},
		{Name: "matcher_1000", Smoke: true, Run: benchMatcher(1000)},
		{Name: "run_all", Smoke: true, GateAllocs: true, Run: benchRunAll},
		{Name: "stream_encode_2000", Smoke: true, Run: benchStreamEncode},
		{Name: "stream_decode_2000", Smoke: true, Run: benchStreamDecode},
		{Name: "fluid_day", Smoke: true, Run: benchFluidDay},
		{Name: "packet_ndt", Smoke: true, Run: benchPacketNDT},
		{Name: "simulator_churn", Smoke: true, Run: benchSimulatorChurn},
		{Name: "server_query", Smoke: true, Run: benchServerQuery},
	}
	// Per-artifact sub-benchmarks: one spec per registry entry, so a
	// regression in run_all can be localized to the figure or table that
	// caused it. Full-set only — the aggregate run_all spec covers CI. The
	// key is the artifact's golden filename stem ("fig06", "table02").
	for _, e := range broadband.Experiments() {
		specs = append(specs, Spec{
			Name: "artifact_" + golden.Slug(e.ID),
			Run:  benchArtifact(e.ID),
		})
	}
	return specs
}

// AllocGate returns the set of spec names whose allocs/op is gated,
// keyed for CompareGated.
func AllocGate(specs []Spec) map[string]bool {
	out := make(map[string]bool)
	for _, s := range specs {
		if s.GateAllocs {
			out[s.Name] = true
		}
	}
	return out
}

// benchArtifact measures a single experiment against the shared run_all
// world.
func benchArtifact(id string) func(b *testing.B) {
	return func(b *testing.B) {
		d, err := runAllWorld()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := broadband.Run(id, d, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The live server behind the server_query spec, started once per process
// over the shared run_all world (same lifetime convention as runAllWorld:
// the listener survives until process exit).
var (
	serverQueryOnce sync.Once
	serverQueryURL  string
	serverQueryErr  error
)

// benchServerQuery measures bbserve's hot query path end to end: an HTTP
// GET through the full middleware stack to a cached artifact result. The
// cache is primed before the timer starts, so the spec tracks the serving
// overhead (routing, admission, cache lookup, response write) rather than
// the first experiment computation.
func benchServerQuery(b *testing.B) {
	serverQueryOnce.Do(func() {
		d, err := runAllWorld()
		if err != nil {
			serverQueryErr = err
			return
		}
		store := serve.NewMemStore()
		if _, err := store.Put("bench", d, nil); err != nil {
			serverQueryErr = err
			return
		}
		srv := serve.New(serve.Config{Store: store, MaxInFlight: 64, Log: log.New(io.Discard, "", 0)})
		serverQueryURL = httptest.NewServer(srv.Handler()).URL
	})
	if serverQueryErr != nil {
		b.Fatal(serverQueryErr)
	}
	url := serverQueryURL + "/v1/datasets/bench/artifacts/fig02?seed=1"
	get := func() error {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n == 0 {
			return fmt.Errorf("server_query: status %d, %d bytes", resp.StatusCode, n)
		}
		return nil
	}
	if err := get(); err != nil { // prime the result cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := get(); err != nil {
			b.Fatal(err)
		}
	}
}

// Select returns the named set: "full" or "smoke".
func Select(set string) ([]Spec, error) {
	all := Specs()
	switch set {
	case "full":
		return all, nil
	case "smoke":
		out := make([]Spec, 0, len(all))
		for _, s := range all {
			if s.Smoke {
				out = append(out, s)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("bench: unknown set %q (want full or smoke)", set)
	}
}

// benchWorldBuild measures the end-to-end dataset pipeline at small scale
// (choice model + measurement + traffic generation per user).
func benchWorldBuild(b *testing.B) {
	b.ReportAllocs()
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

// benchMatcher measures the windowed nearest-neighbor matcher on
// synthetic covariates at a given population size (treated = n, control =
// 2n).
func benchMatcher(n int) func(b *testing.B) {
	return func(b *testing.B) {
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
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Match(treated, control, randx.New(uint64(i)))
		}
	}
}

// runAllWorld is the shared world behind the run_all spec, generated once
// per process (it costs seconds; the spec measures the experiment
// fan-out, not world generation).
var (
	runAllOnce  sync.Once
	runAllData  *dataset.Dataset
	runAllBuild error
)

func runAllWorld() (*dataset.Dataset, error) {
	runAllOnce.Do(func() {
		w, err := synth.Build(synth.Config{
			Seed: 20140705, Users: 2000, FCCUsers: 500, Days: 2,
			SwitchTarget: 350, MinPerCountry: 25,
		})
		if err != nil {
			runAllBuild = err
			return
		}
		runAllData = &w.Data
	})
	return runAllData, runAllBuild
}

// benchRunAll measures the full experiment registry fan-out (every table
// and figure) against the shared world at the default worker count.
func benchRunAll(b *testing.B) {
	d, err := runAllWorld()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broadband.RunAllWorkers(d, uint64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// streamUsers synthesizes a deterministic user table for the streaming
// benches (the dataset package's test fixtures are not importable here).
func streamUsers(n int) []dataset.User {
	countries := []string{"US", "JP", "DE", "BR", "IN"}
	users := make([]dataset.User, n)
	for i := range users {
		users[i] = dataset.User{
			ID:          int64(i + 1),
			Country:     countries[i%len(countries)],
			Year:        2011 + i%3,
			ISP:         "isp-" + countries[i%len(countries)],
			NetworkKey:  "net-" + countries[i%len(countries)],
			PlanDown:    unit.MbpsOf(1.5 + float64(i%37)*0.83),
			PlanUp:      unit.MbpsOf(0.5),
			PlanPrice:   unit.USD(20 + float64(i%50)),
			Capacity:    unit.MbpsOf(1.2 + float64(i%37)*0.8),
			RTT:         0.005 + float64(i)*1e-4/3,
			Loss:        unit.LossRate(float64(i%11) * 1e-4 / 7),
			UsesBT:      i%3 == 0,
			AccessPrice: unit.USD(7.77 + float64(i)/13),
		}
	}
	return users
}

const streamRows = 2000

// streamRaw is the encoded form of the bench user table, built once: the
// decode spec's input and both specs' throughput byte count.
var streamRaw = sync.OnceValues(func() ([]byte, error) {
	var buf bytes.Buffer
	err := dataset.WriteAll(&buf, streamUsers(streamRows), 1)
	return buf.Bytes(), err
})

// benchStreamEncode measures the streaming CSV writer over streamRows
// users per op.
func benchStreamEncode(b *testing.B) {
	users := streamUsers(streamRows)
	raw, err := streamRaw()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uw, err := dataset.NewWriter[dataset.User](io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for j := range users {
			if err := uw.Write(&users[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchStreamDecode measures the streaming CSV reader over the same table.
func benchStreamDecode(b *testing.B) {
	raw, err := streamRaw()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ur, err := dataset.NewReader[dataset.User](bytes.NewReader(raw), "users")
		if err != nil {
			b.Fatal(err)
		}
		var u dataset.User
		rows := 0
		for {
			err := ur.Read(&u)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			rows++
		}
		if rows != streamRows {
			b.Fatalf("read %d rows", rows)
		}
	}
}

// benchFluidDay measures one user-day of flow-level simulation plus its
// summary — the unit of dataset generation.
func benchFluidDay(b *testing.B) {
	g := &traffic.Generator{
		Capacity: unit.MbpsOf(10),
		Quality:  traffic.Quality{RTT: 0.04, Loss: 0.0005},
		Profile:  traffic.Profile{NeedMbps: 3},
	}
	b.ReportAllocs()
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

// benchPacketNDT measures one packet-level NDT run (the expensive
// measurement path the fluid model amortizes away for usage horizons).
func benchPacketNDT(b *testing.B) {
	line := netsim.AccessLine{
		Down: netsim.LinkConfig{Rate: unit.MbpsOf(10), Delay: 0.02, Loss: netsim.LossModel{Rate: 0.002}},
		Up:   netsim.LinkConfig{Rate: unit.MbpsOf(1), Delay: 0.02},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := netsim.RunNDT(line, netsim.NDTConfig{Duration: 5, SkipUp: true}, randx.New(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		_ = res.DownloadRate
	}
}

// benchSimulatorChurn measures the event-queue substrate through the
// Simulator API on a self-extending schedule shaped like the packet
// simulator's (each event schedules its successor a sub-millisecond step
// ahead) — the spec that tracks the calendar queue's trajectory.
func benchSimulatorChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s netsim.Simulator
		remaining := 10000
		var step func()
		step = func() {
			if remaining > 0 {
				remaining--
				s.After(0.0012, step)
			}
		}
		for j := 0; j < 64; j++ {
			s.After(float64(j)*0.0001, step)
		}
		s.Run()
		if s.Now() == 0 {
			b.Fatal("simulator did not advance")
		}
	}
}
