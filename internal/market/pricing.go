package market

import (
	"fmt"

	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/unit"
)

// AccessPrice returns the paper's "price of broadband access" metric for a
// market: the monthly USD PPP cost of the cheapest shared plan with a
// download capacity of at least 1 Mbps (Sec. 5). ok is false when the
// market sells no such plan.
func AccessPrice(c Catalog) (unit.USD, bool) {
	best := unit.USD(0)
	found := false
	for _, p := range c.Plans {
		if p.Dedicated || p.Down < 1*unit.Mbps {
			continue
		}
		if !found || p.PriceUSD < best {
			best = p.PriceUSD
			found = true
		}
	}
	return best, found
}

// AccessPriceGroup is the paper's three-way banding of markets by access
// price (Sec. 5, Table 3).
type AccessPriceGroup int

// The paper's access-price bands.
const (
	AccessCheap     AccessPriceGroup = iota // ($0, $25] per month
	AccessMid                               // ($25, $60]
	AccessExpensive                         // ($60, ∞)
)

// String renders the band as the paper's tables do.
func (g AccessPriceGroup) String() string {
	switch g {
	case AccessCheap:
		return "($0, $25]"
	case AccessMid:
		return "($25, $60]"
	case AccessExpensive:
		return "($60, inf)"
	default:
		return fmt.Sprintf("AccessPriceGroup(%d)", int(g))
	}
}

// GroupOfAccessPrice bands an access price.
func GroupOfAccessPrice(p unit.USD) AccessPriceGroup {
	switch {
	case p <= 25:
		return AccessCheap
	case p <= 60:
		return AccessMid
	default:
		return AccessExpensive
	}
}

// UpgradeCost is the paper's "cost of increasing capacity" analysis for one
// market (Sec. 6): an OLS regression of monthly plan price (USD PPP) on
// download capacity (Mbps) over the shared plans of the catalog.
type UpgradeCost struct {
	Country string
	// Slope is the fitted price increase per additional Mbps per month.
	Slope unit.PerMbps
	// R is the price–capacity correlation. The paper only trusts slopes
	// from markets with at least moderate correlation (R > 0.4).
	R float64
	// N is the number of plans regressed.
	N int
}

// Reliable reports whether the market clears the paper's moderate-
// correlation bar for using the slope (r > 0.4).
func (u UpgradeCost) Reliable() bool { return u.R > 0.4 }

// StrongCorrelation reports the paper's strong-correlation bar (r > 0.8).
func (u UpgradeCost) StrongCorrelation() bool { return u.R > 0.8 }

// EstimateUpgradeCost regresses price on capacity for one catalog. All
// plans — including dedicated outliers and capped plans — enter the
// regression, exactly as the survey rows would; that is what depresses the
// correlation in markets like Afghanistan.
func EstimateUpgradeCost(c Catalog) (UpgradeCost, error) {
	xs := make([]float64, 0, len(c.Plans))
	ys := make([]float64, 0, len(c.Plans))
	for _, p := range c.Plans {
		if p.Down <= 0 {
			continue
		}
		xs = append(xs, p.Down.Mbps())
		ys = append(ys, p.PriceUSD.Dollars())
	}
	fit, err := stats.LinearRegression(xs, ys)
	if err != nil {
		return UpgradeCost{}, fmt.Errorf("market %s: %w", c.Country.Code, err)
	}
	return UpgradeCost{
		Country: c.Country.Code,
		Slope:   unit.PerMbps(fit.Slope),
		R:       fit.R,
		N:       fit.N,
	}, nil
}

// UpgradeCostGroup is the paper's three-way banding of markets by the cost
// of increasing capacity (Sec. 6, Table 6).
type UpgradeCostGroup int

// The paper's upgrade-cost bands.
const (
	UpgradeCheap     UpgradeCostGroup = iota // ($0, $0.50] per Mbps per month, and any negative fit
	UpgradeMid                               // ($0.50, $1.00]
	UpgradeExpensive                         // ($1.00, ∞)
)

// String renders the band as the paper's tables do.
func (g UpgradeCostGroup) String() string {
	switch g {
	case UpgradeCheap:
		return "($0, $0.50]"
	case UpgradeMid:
		return "($0.50, $1.00]"
	case UpgradeExpensive:
		return "($1.00, inf)"
	default:
		return fmt.Sprintf("UpgradeCostGroup(%d)", int(g))
	}
}

// GroupOfUpgradeCost bands an upgrade-cost slope. The cheap band holds
// every slope ≤ $0.50, negative fits included: a slope is a regression
// fit, not a price, and dedicated-line outliers can tilt it below zero.
func GroupOfUpgradeCost(s unit.PerMbps) UpgradeCostGroup {
	switch {
	case s <= 0.5:
		return UpgradeCheap
	case s <= 1.0:
		return UpgradeMid
	default:
		return UpgradeExpensive
	}
}

// MarketSummary aggregates the per-market metrics every experiment joins
// against user records.
type MarketSummary struct {
	Country     Country
	AccessPrice unit.USD
	AccessGroup AccessPriceGroup
	Upgrade     UpgradeCost
}

// Summarize computes the summary of one catalog.
func Summarize(c Catalog) (MarketSummary, error) {
	price, ok := AccessPrice(c)
	if !ok {
		return MarketSummary{}, fmt.Errorf("market %s: no plan of at least 1 Mbps", c.Country.Code)
	}
	up, err := EstimateUpgradeCost(c)
	if err != nil {
		return MarketSummary{}, err
	}
	return MarketSummary{
		Country:     c.Country,
		AccessPrice: price,
		AccessGroup: GroupOfAccessPrice(price),
		Upgrade:     up,
	}, nil
}
