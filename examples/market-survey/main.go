// Market survey: the Sec. 5/6 pricing analyses over the synthetic retail
// plan survey — each market's access price and upgrade-cost slope,
// access-price bands, regional shares and the case-study affordability
// table.
//
//	go run ./examples/market-survey
package main

import (
	"fmt"
	"log"
	"sort"

	broadband "github.com/nwca/broadband"
)

func main() {
	world, err := broadband.BuildWorld(broadband.WorldConfig{
		Seed: 7, Users: 1500, FCCUsers: 100, Days: 1, SwitchTarget: 50, MinPerCountry: 10,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 1. The survey itself: how many plans, how many markets, and each
	// market's two price metrics.
	fmt.Printf("survey: %d plans across %d markets\n\n", len(world.Data.Plans), len(world.Data.Markets))
	plans := map[string]int{}
	for _, p := range world.Data.Plans {
		plans[p.Country]++
	}
	codes := make([]string, 0, len(world.Data.Markets))
	for cc := range world.Data.Markets {
		codes = append(codes, cc)
	}
	sort.Strings(codes)
	fmt.Printf("%-4s %-22s %-28s %10s %14s %6s\n", "cc", "country", "region", "access", "upgrade", "plans")
	for _, cc := range codes {
		ms := world.Data.Markets[cc]
		fmt.Printf("%-4s %-22s %-28s %10v %14v %6d\n",
			cc, ms.Country.Name, ms.Country.Region, ms.AccessPrice, ms.Upgrade.Slope, plans[cc])
	}
	fmt.Println()

	// 2. Access-price bands (Sec. 5's grouping).
	type band struct{ cheap, mid, expensive []string }
	var b band
	for cc, ms := range world.Data.Markets {
		switch {
		case ms.AccessPrice <= 25:
			b.cheap = append(b.cheap, cc)
		case ms.AccessPrice <= 60:
			b.mid = append(b.mid, cc)
		default:
			b.expensive = append(b.expensive, cc)
		}
	}
	for _, g := range []struct {
		name string
		ccs  []string
	}{
		{"($0, $25]", b.cheap}, {"($25, $60]", b.mid}, {"($60, inf)", b.expensive},
	} {
		sort.Strings(g.ccs)
		fmt.Printf("access %-12s %2d markets: %v\n", g.name, len(g.ccs), g.ccs)
	}
	fmt.Println()

	// 3. Upgrade-cost distribution (Fig. 10) and regional shares (Table 5),
	// via the reproduction harness.
	for _, id := range []string{"Fig. 10", "Table 5", "Table 4"} {
		rep, err := broadband.Run(id, &world.Data, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(rep.Render())
		fmt.Println()
	}

	// 4. A custom query: the five cheapest and five most expensive markets
	// per advertised Mbps at the 10 Mbps point.
	type pricePoint struct {
		cc    string
		price float64
	}
	var points []pricePoint
	for cc, ms := range world.Data.Markets {
		points = append(points, pricePoint{cc, ms.AccessPrice.Dollars() + 9*float64(ms.Upgrade.Slope)})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].price < points[j].price })
	fmt.Println("cheapest implied 10 Mbps price:")
	for _, p := range points[:5] {
		fmt.Printf("  %s  $%.2f/month\n", p.cc, p.price)
	}
	fmt.Println("most expensive implied 10 Mbps price:")
	for _, p := range points[len(points)-5:] {
		fmt.Printf("  %s  $%.2f/month\n", p.cc, p.price)
	}
}
