package experiments

import (
	"fmt"
	"strings"
	"testing"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/golden"
	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/synth"
)

func streamManifest(t *testing.T) *golden.Manifest {
	t.Helper()
	m, err := golden.LoadManifest("testdata/stream_tolerances.json")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// overviewOfPanel feeds a panel's rows to the sketch, one materialized
// row at a time.
func overviewOfPanel(p *dataset.Panel) (*StreamOverview, error) {
	o, err := NewOverviewSketch()
	if err != nil {
		return nil, err
	}
	var u dataset.User
	for i := 0; i < p.Len(); i++ {
		p.UserAt(i, &u)
		if err := o.AddUser(&u); err != nil {
			return nil, err
		}
	}
	return o.Overview()
}

// TestOverviewSketchVsExact is the sketch-accuracy gate of the streaming
// layer: the one-pass overview must agree with the exact in-core reference
// within the tolerances declared in testdata/stream_tolerances.json —
// moments at float precision, quantiles at ECDF bin resolution, extremes
// and counts exactly.
func TestOverviewSketchVsExact(t *testing.T) {
	t.Parallel()
	d := evalData(t)
	m := streamManifest(t)

	exact, err := overviewExact(d.Panel())
	if err != nil {
		t.Fatal(err)
	}
	sketch, err := overviewOfPanel(d.Panel())
	if err != nil {
		t.Fatal(err)
	}
	if sketch.Users != exact.Users {
		t.Fatalf("sketch saw %d users, exact %d", sketch.Users, exact.Users)
	}

	want, err := golden.ToValue(exact)
	if err != nil {
		t.Fatal(err)
	}
	got, err := golden.ToValue(sketch)
	if err != nil {
		t.Fatal(err)
	}
	diffs := golden.Compare(want, got, "StreamOverview", m.Tolerances)
	for _, diff := range diffs {
		t.Errorf("sketch drifts from exact: %s", diff)
	}
	// The manifest's qualitative checks must hold for both shapes.
	for _, v := range golden.EvalChecks(want, m.Checks("StreamOverview"), false) {
		t.Errorf("exact overview violates manifest: %s", v)
	}
	for _, v := range golden.EvalChecks(got, m.Checks("StreamOverview"), false) {
		t.Errorf("sketch overview violates manifest: %s", v)
	}
	if !strings.Contains(sketch.Render(), "end-host users") {
		t.Error("Render is missing the population line")
	}
}

// TestOverviewScaleInvariantChecks evaluates the manifest's scale-invariant
// assertions on worlds the default reproduction config never sees — small,
// reseeded, gzip-sharded on disk — streamed through dataset.EachUser as
// bbstats reads them.
func TestOverviewScaleInvariantChecks(t *testing.T) {
	t.Parallel()
	m := streamManifest(t)
	for _, cfg := range []synth.Config{
		{Seed: 5, Users: 300, FCCUsers: 60, Days: 1, SwitchTarget: -1},
		{Seed: 77, Users: 900, FCCUsers: 100, Days: 1, SwitchTarget: -1, MinPerCountry: 3},
	} {
		dir := t.TempDir()
		rep, err := synth.BuildSharded(t.Context(), cfg, synth.ShardSpec{Dir: dir, Shards: 4, Gzip: true})
		if err != nil {
			t.Fatal(err)
		}
		o, err := NewOverviewSketch()
		if err != nil {
			t.Fatal(err)
		}
		if err := dataset.EachUser(dir, o.AddUser); err != nil {
			t.Fatal(err)
		}
		sketch, err := o.Overview()
		if err != nil {
			t.Fatal(err)
		}
		if sketch.Users >= int64(rep.Users) {
			t.Fatalf("seed=%d: overview counted %d Dasu users of %d total (gateway rows must be excluded)", cfg.Seed, sketch.Users, rep.Users)
		}
		v, err := golden.ToValue(sketch)
		if err != nil {
			t.Fatal(err)
		}
		for _, violation := range golden.EvalChecks(v, m.Checks("StreamOverview"), true) {
			t.Errorf("seed=%d: %s", cfg.Seed, violation)
		}
	}
}

// TestOverviewEmptyPanel pins the error contract: a stream with no Dasu
// rows is an error, not a zero-filled artifact.
func TestOverviewEmptyPanel(t *testing.T) {
	t.Parallel()
	empty := dataset.BuildPanel(nil)
	if _, err := overviewOfPanel(empty); err == nil {
		t.Error("empty source produced an overview")
	}
	gw := dataset.BuildPanel([]dataset.User{{ID: 1, Vantage: dataset.VantageGateway}})
	if _, err := overviewOfPanel(gw); err == nil {
		t.Error("gateway-only source produced an overview")
	}
	if _, err := overviewExact(empty); err == nil {
		t.Error("overviewExact of an empty panel produced an overview")
	}
	if _, err := overviewExact(gw); err == nil {
		t.Error("overviewExact of a gateway-only panel produced an overview")
	}
}

// overviewExact computes the same artifact with the exact in-core
// machinery (sorted order statistics, two-pass variance) over a panel's
// end-host rows. It is the golden reference the sketch is compared against
// under the tolerance manifest.
func overviewExact(p *dataset.Panel) (*StreamOverview, error) {
	v := p.Where(dataset.ColVantage(dataset.VantageDasu))
	if v.Len() == 0 {
		return nil, fmt.Errorf("experiments: overview of an empty end-host panel")
	}
	out := &StreamOverview{Users: int64(v.Len())}
	capMbps := v.Gather(p.Capacity)
	for i := range capMbps {
		capMbps[i] /= 1e6
	}
	for _, m := range []struct {
		dst *DistSketch
		xs  []float64
	}{
		{&out.Capacity, capMbps},
		{&out.RTT, v.Gather(p.RTT)},
		{&out.Loss, v.Gather(p.Loss)},
	} {
		d, err := exactDist(m.xs)
		if err != nil {
			return nil, err
		}
		*m.dst = d
	}
	n := float64(v.Len())
	for _, i := range v.Idx {
		if p.Capacity[i] < 1e6 {
			out.FracBelow1Mbps++
		}
		if p.Capacity[i] > 30e6 {
			out.FracAbove30Mbps++
		}
		if p.RTT[i] > 0.5 {
			out.FracRTTOver500++
		}
		if p.Loss[i] > 0.01 {
			out.FracLossOver1++
		}
	}
	out.FracBelow1Mbps /= n
	out.FracAbove30Mbps /= n
	out.FracRTTOver500 /= n
	out.FracLossOver1 /= n
	return out, nil
}

func exactDist(xs []float64) (DistSketch, error) {
	var d DistSketch
	d.N = int64(len(xs))
	var err error
	if d.Mean, err = stats.Mean(xs); err != nil {
		return d, err
	}
	if len(xs) > 1 {
		if d.StdDev, err = stats.StdDev(xs); err != nil {
			return d, err
		}
	}
	for _, q := range []struct {
		p   float64
		dst *float64
	}{{0, &d.Min}, {0.05, &d.P05}, {0.25, &d.P25}, {0.5, &d.Median}, {0.75, &d.P75}, {0.95, &d.P95}, {1, &d.Max}} {
		if *q.dst, err = stats.Quantile(xs, q.p); err != nil {
			return d, err
		}
	}
	return d, nil
}
