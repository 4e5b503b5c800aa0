package market

import "github.com/nwca/broadband/internal/unit"

// IncomeShare returns a monthly price as a fraction of one month of GDP per
// capita — the paper's Table 4 affordability column ("Cost of Internet
// access as percentage of monthly GDP per capita").
func IncomeShare(price unit.USD, c Country) float64 {
	monthly := c.MonthlyGDPPerCapita()
	if monthly <= 0 {
		return 0
	}
	return price.Dollars() / monthly
}
