package stats

import (
	"fmt"
	"math"

	"github.com/nwca/broadband/internal/unit"
)

// CapacityClass is the paper's service-class index k: class k contains
// download capacities in (100 kbps × 2^(k−1), 100 kbps × 2^k]. Class 1 is
// (100, 200] kbps; class 10 is (25.6, 51.2] Mbps.
type CapacityClass int

// capacityBase is the 100 kbps base of the class ladder.
const capacityBase = 100 * unit.Kbps

// ClassOf returns the capacity class containing rate. Rates at or below the
// base of the ladder map to class 1's lower neighbors (class ≤ 0 is possible
// for sub-100 kbps links and handled by callers that clamp).
func ClassOf(rate unit.Bitrate) CapacityClass {
	if rate <= 0 {
		return math.MinInt32
	}
	// Solve 100k·2^(k−1) < rate ≤ 100k·2^k for integer k.
	k := math.Ceil(math.Log2(float64(rate) / float64(capacityBase)))
	// Guard the boundary: floating error can push an exact power either way.
	c := CapacityClass(k)
	for rate <= c.Lower() {
		c--
	}
	for rate > c.Upper() {
		c++
	}
	return c
}

// Lower returns the exclusive lower bound of the class.
func (c CapacityClass) Lower() unit.Bitrate {
	return capacityBase * unit.Bitrate(math.Pow(2, float64(c-1)))
}

// Upper returns the inclusive upper bound of the class.
func (c CapacityClass) Upper() unit.Bitrate {
	return capacityBase * unit.Bitrate(math.Pow(2, float64(c)))
}

// Contains reports whether rate falls inside the class interval.
func (c CapacityClass) Contains(rate unit.Bitrate) bool {
	return rate > c.Lower() && rate <= c.Upper()
}

// String renders the class as its interval, e.g. "(6.4, 12.8] Mbps".
func (c CapacityClass) String() string {
	return fmt.Sprintf("(%s, %s]", formatMbps(c.Lower()), formatMbps(c.Upper()))
}

func formatMbps(r unit.Bitrate) string {
	v := r.Mbps()
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0f Mbps", v)
	}
	return fmt.Sprintf("%.1f Mbps", v)
}

// Tier is a named capacity band used by the cross-country comparisons
// (Sec. 5): <1, 1–8, 8–16, 16–32 and >32 Mbps.
type Tier int

// The paper's five service tiers.
const (
	TierSub1 Tier = iota
	Tier1to8
	Tier8to16
	Tier16to32
	TierOver32
	numTiers
)

// TierOf returns the tier containing the rate.
func TierOf(rate unit.Bitrate) Tier {
	switch {
	case rate < 1*unit.Mbps:
		return TierSub1
	case rate < 8*unit.Mbps:
		return Tier1to8
	case rate < 16*unit.Mbps:
		return Tier8to16
	case rate < 32*unit.Mbps:
		return Tier16to32
	default:
		return TierOver32
	}
}

// Tiers lists all five tiers in ascending order.
func Tiers() []Tier {
	return []Tier{TierSub1, Tier1to8, Tier8to16, Tier16to32, TierOver32}
}

// String renders the tier the way the paper labels it.
func (t Tier) String() string {
	switch t {
	case TierSub1:
		return "<1 Mbps"
	case Tier1to8:
		return "1-8 Mbps"
	case Tier8to16:
		return "8-16 Mbps"
	case Tier16to32:
		return "16-32 Mbps"
	case TierOver32:
		return ">32 Mbps"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}
