package market

import (
	"fmt"
	"sort"

	"github.com/nwca/broadband/internal/unit"
)

// Technology is the access technology of a retail plan; it drives the
// quality profile (satellite and fixed-wireless lines carry the long
// latencies and loss bursts the paper observes in its tails).
type Technology int

// Access technologies seen in the survey.
const (
	DSL Technology = iota
	Cable
	Fiber
	FixedWireless
	Satellite
)

// String names the technology.
func (t Technology) String() string {
	switch t {
	case DSL:
		return "DSL"
	case Cable:
		return "Cable"
	case Fiber:
		return "Fiber"
	case FixedWireless:
		return "FixedWireless"
	case Satellite:
		return "Satellite"
	default:
		return fmt.Sprintf("Technology(%d)", int(t))
	}
}

// Plan is one retail broadband offer: the unit of the pricing survey.
type Plan struct {
	Country    string // ISO country code
	ISP        string
	Down       unit.Bitrate
	Up         unit.Bitrate
	PriceLocal float64       // monthly price in local currency
	PriceUSD   unit.USD      // monthly price in USD PPP (normalized at survey build time)
	Cap        unit.ByteSize // monthly traffic cap; 0 = unlimited
	Tech       Technology
	// Dedicated marks non-shared business-grade lines (the survey outliers
	// that weaken price–capacity correlation in markets like Afghanistan).
	Dedicated bool
}

// String renders the plan compactly.
func (p Plan) String() string {
	capStr := "unlimited"
	if p.Cap > 0 {
		capStr = p.Cap.String()
	}
	return fmt.Sprintf("%s %s %s down / %s up, %s/mo, %s, %s",
		p.Country, p.ISP, p.Down, p.Up, p.PriceUSD, capStr, p.Tech)
}

// Catalog is the set of retail plans available in one country.
type Catalog struct {
	Country Country
	Plans   []Plan
}

// SortByPrice orders plans by ascending USD PPP price (stable under equal
// prices by capacity).
func (c *Catalog) SortByPrice() {
	sort.SliceStable(c.Plans, func(i, j int) bool {
		if c.Plans[i].PriceUSD != c.Plans[j].PriceUSD {
			return c.Plans[i].PriceUSD < c.Plans[j].PriceUSD
		}
		return c.Plans[i].Down < c.Plans[j].Down
	})
}

// NearestTier returns the shared plan whose download capacity is closest to
// the target in log space — the paper's Table 4 matches each country's
// median measured capacity to "the nearest speed tier in our set of
// Internet services".
func (c *Catalog) NearestTier(target unit.Bitrate) (Plan, bool) {
	if target <= 0 {
		return Plan{}, false
	}
	var best Plan
	found := false
	bestDist := 0.0
	for _, p := range c.Plans {
		if p.Dedicated || p.Down <= 0 {
			continue
		}
		d := logDist(float64(p.Down), float64(target))
		if !found || d < bestDist || (d == bestDist && p.PriceUSD < best.PriceUSD) {
			best, bestDist, found = p, d, true
		}
	}
	return best, found
}

func logDist(a, b float64) float64 {
	r := a / b
	if r < 1 {
		r = 1 / r
	}
	return r
}
