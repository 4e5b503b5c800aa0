// Natural experiment: design a custom causal study with the matching
// engine — "does long latency depress demand?" — and validate the design
// with a placebo treatment that must come out null.
//
//	go run ./examples/natural-experiment
package main

import (
	"fmt"
	"log"

	broadband "github.com/nwca/broadband"
)

func main() {
	world, err := broadband.BuildWorld(broadband.WorldConfig{
		Seed: 99, Users: 2200, FCCUsers: 100, Days: 2, SwitchTarget: 50, MinPerCountry: 15,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Split the end-host population by latency: each population is a view,
	// a list of row indices into the dataset's columnar panel.
	p := world.Data.Panel()
	fast, slow := broadband.View{P: p}, broadband.View{P: p}
	for i := 0; i < p.Len(); i++ {
		if p.Vantage[i] != broadband.VantageDasu {
			continue
		}
		switch {
		case p.RTT[i] <= 0.128:
			fast.Idx = append(fast.Idx, int32(i))
		case p.RTT[i] > 0.512:
			slow.Idx = append(slow.Idx, int32(i))
		}
	}
	fmt.Printf("populations: %d low-latency, %d high-latency users\n\n", fast.Len(), slow.Len())
	peakDemand := func(p *broadband.Panel) []float64 { return p.UsagePeakNoBT }

	// The real experiment: H = low-latency users impose higher peak demand,
	// after matching away capacity, loss and market prices.
	matcher := broadband.Matcher{Confounders: []broadband.Confounder{
		broadband.ByCapacity(), broadband.ByLoss(),
		broadband.ByAccessPrice(), broadband.ByUpgradeCost(),
	}}
	exp := broadband.Experiment{
		Name:      "low latency raises demand",
		Treatment: fast,
		Control:   slow,
		Matcher:   matcher,
		Outcome:   peakDemand,
	}
	res, err := exp.Run(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("real treatment:   ", res)
	for _, b := range res.Balance {
		fmt.Println("  balance:", b)
	}

	// The placebo: an odd user ID cannot cause anything. The same machinery
	// must report chance-level agreement — if it does not, the design (not
	// the world) is broken.
	odd, even := broadband.View{P: p}, broadband.View{P: p}
	for i := 0; i < p.Len(); i++ {
		if p.Vantage[i] != broadband.VantageDasu {
			continue
		}
		if p.ID[i]%2 == 1 {
			odd.Idx = append(odd.Idx, int32(i))
		} else {
			even.Idx = append(even.Idx, int32(i))
		}
	}
	placebo := broadband.Experiment{
		Name:      "placebo: odd user id",
		Treatment: odd,
		Control:   even,
		Matcher: broadband.Matcher{Confounders: []broadband.Confounder{
			broadband.ByCapacity(), broadband.ByRTT(), broadband.ByLoss(),
		}},
		Outcome: peakDemand,
	}
	pres, err := placebo.Run(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("placebo treatment:", pres)
	if pres.Sig.Significant() {
		fmt.Println("!! the placebo came out significant — distrust the design")
	} else {
		fmt.Println("placebo is null, as it must be")
	}
}
