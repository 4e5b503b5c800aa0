package broadband_test

import (
	"fmt"

	broadband "github.com/nwca/broadband"
)

// The end-to-end flow: one seed produces the study's three datasets; any
// paper artifact regenerates against them.
func Example() {
	world, err := broadband.BuildWorld(broadband.WorldConfig{
		Seed: 7, Users: 400, FCCUsers: 60, Days: 1, SwitchTarget: 60,
	})
	if err != nil {
		panic(err)
	}
	rep, err := broadband.Run("Table 1", &world.Data, 1)
	if err != nil {
		panic(err)
	}
	res := rep.(interface {
		ID() string
		Title() string
	})
	fmt.Println(res.ID(), "—", res.Title())
	// Output:
	// Table 1 — Within-user upgrade experiment: demand on faster vs. slower service
}

// Designing a custom natural experiment with the matching engine.
func Example_customExperiment() {
	world, err := broadband.BuildWorld(broadband.WorldConfig{
		Seed: 7, Users: 400, FCCUsers: 60, Days: 1, SwitchTarget: 60,
	})
	if err != nil {
		panic(err)
	}
	// Populations are views: row indices into the columnar panel, whose
	// rate columns hold bits per second.
	p := world.Data.Panel()
	fast, slow := broadband.View{P: p}, broadband.View{P: p}
	for i, c := range p.Capacity {
		switch {
		case c > 8e6 && c <= 16e6:
			fast.Idx = append(fast.Idx, int32(i))
		case c > 2e6 && c <= 4e6:
			slow.Idx = append(slow.Idx, int32(i))
		}
	}
	exp := broadband.Experiment{
		Name:      "capacity raises peak demand",
		Treatment: fast,
		Control:   slow,
		Matcher: broadband.Matcher{Confounders: []broadband.Confounder{
			broadband.ByRTT(), broadband.ByLoss(), broadband.ByAccessPrice(),
		}},
		Outcome: func(p *broadband.Panel) []float64 { return p.UsagePeakNoBT },
	}
	res, err := exp.Run(nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("direction positive:", res.Fraction() > 0.5)
	fmt.Println("significant:", res.Sig.Significant())
	// Output:
	// direction positive: true
	// significant: true
}
