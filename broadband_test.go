package broadband_test

import (
	"strings"
	"sync"
	"testing"

	broadband "github.com/nwca/broadband"
)

var (
	apiWorldOnce sync.Once
	apiWorld     *broadband.World
	apiWorldErr  error
)

func apiTestWorld(t *testing.T) *broadband.World {
	t.Helper()
	apiWorldOnce.Do(func() {
		apiWorld, apiWorldErr = broadband.BuildWorld(broadband.WorldConfig{
			Seed: 4, Users: 700, FCCUsers: 120, Days: 1, SwitchTarget: 60, MinPerCountry: 10,
		})
	})
	if apiWorldErr != nil {
		t.Fatal(apiWorldErr)
	}
	return apiWorld
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	w := apiTestWorld(t)
	if len(w.Data.Users) == 0 || len(w.Data.Plans) == 0 {
		t.Fatal("world looks empty")
	}
	rep, err := broadband.Run("Table 1", &w.Data, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Render(), "Table 1") {
		t.Errorf("render missing id: %q", rep.Render())
	}
	if _, err := broadband.Run("Table 42", &w.Data, 7); err == nil {
		t.Error("bogus experiment id should error")
	}
}

func TestPublicRunAll(t *testing.T) {
	w := apiTestWorld(t)
	reports, err := broadband.RunAll(&w.Data, 7)
	if err != nil {
		t.Fatalf("RunAll: %v (after %d reports)", err, len(reports))
	}
	if len(reports) != len(broadband.Experiments()) {
		t.Errorf("got %d reports, want %d", len(reports), len(broadband.Experiments()))
	}
}

func TestPublicCausalAPI(t *testing.T) {
	w := apiTestWorld(t)
	// Users on faster links should demand more, matched on quality & price.
	p := w.Data.Panel()
	fast, slow := broadband.View{P: p}, broadband.View{P: p}
	for i, c := range p.Capacity {
		switch {
		case c > 8e6 && c <= 20e6:
			fast.Idx = append(fast.Idx, int32(i))
		case c > 1e6 && c <= 4e6:
			slow.Idx = append(slow.Idx, int32(i))
		}
	}
	exp := broadband.Experiment{
		Name:      "api demo",
		Treatment: fast,
		Control:   slow,
		Matcher: broadband.Matcher{Confounders: []broadband.Confounder{
			broadband.ByRTT(), broadband.ByLoss(), broadband.ByAccessPrice(),
		}},
		Outcome: func(p *broadband.Panel) []float64 { return p.UsagePeakNoBT },
	}
	res, err := exp.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fraction() <= 0.5 {
		t.Errorf("capacity effect inverted: %v", res)
	}
	// Paired design over the switch panel.
	paired, err := broadband.RunPaired("api paired", w.Data.Switches,
		func(s broadband.UsageSummary) float64 { return float64(s.PeakNoBT) })
	if err != nil {
		t.Fatal(err)
	}
	if paired.Pairs != len(w.Data.Switches) {
		t.Errorf("paired over %d, want %d", paired.Pairs, len(w.Data.Switches))
	}
}

func TestDefaultMarketsIsACopy(t *testing.T) {
	a := broadband.DefaultMarkets()
	if len(a) < 60 {
		t.Fatalf("markets = %d", len(a))
	}
	a[0].AccessPriceUSD = -1
	b := broadband.DefaultMarkets()
	if b[0].AccessPriceUSD == -1 {
		t.Error("DefaultMarkets leaked internal state")
	}
}
