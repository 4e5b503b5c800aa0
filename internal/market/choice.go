package market

import (
	"math"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

// Subscriber is the decision-theoretic household of the study's title:
// what it needs (a latent demand scale), what it wants (a saturating value
// of capacity above need — headroom for peaks, multiple devices, future
// applications), and what it can afford (a hard monthly budget).
type Subscriber struct {
	// NeedMbps is the latent demand scale: the capacity at which the
	// household's applications stop being constrained most of the time.
	NeedMbps float64
	// WTP is the willingness to pay for capacity, in USD of consumer
	// surplus at full saturation of the value curve. It scales with income.
	WTP unit.USD
	// Budget is the maximum acceptable monthly price.
	Budget unit.USD
	// Headroom stretches the value curve: how much capacity beyond raw
	// need the household values (≥1; 2 means value saturates around twice
	// the need scale).
	Headroom float64
}

// Value returns the household's dollar-denominated utility of a plan
// capacity: WTP · (1 − exp(−c / (Headroom·Need))). Concave and saturating —
// the driver of the paper's diminishing-returns observations.
func (s Subscriber) Value(down unit.Bitrate) unit.USD {
	if down <= 0 || s.NeedMbps <= 0 {
		return 0
	}
	scale := s.Headroom * s.NeedMbps
	if scale <= 0 {
		scale = s.NeedMbps
	}
	return s.WTP * unit.USD(1-math.Exp(-down.Mbps()/scale))
}

// Utility returns value minus price; plans above budget are -Inf.
func (s Subscriber) Utility(p Plan) float64 {
	if p.PriceUSD > s.Budget {
		return math.Inf(-1)
	}
	return float64(s.Value(p.Down) - p.PriceUSD)
}

// ChoiceConfig tunes the plan-selection process.
type ChoiceConfig struct {
	// NoiseUSD is the scale of the idiosyncratic (Gumbel) taste shock per
	// plan, modeling the biased and imperfect choices the paper cites
	// (Sec. 3): a few dollars of apparent irrationality.
	NoiseUSD float64
	// SwitchingCost is subtracted from every plan except `current`, making
	// subscribers sticky when re-choosing (upgrade dynamics, Sec. 4).
	SwitchingCost unit.USD
	// Current, when non-nil, is the subscriber's existing plan.
	Current *Plan
	// MaxDown, when positive, leaves out every plan faster than it, as if
	// the catalog held only the rest: the street-level availability limit.
	MaxDown unit.Bitrate
}

// Choose selects the utility-maximizing affordable shared plan for the
// subscriber, with Gumbel taste shocks. ok is false when no plan fits the
// budget (the household remains offline — it is simply absent from the
// measurement datasets, matching how unaffordable markets appear as thin
// populations).
func Choose(c Catalog, s Subscriber, cfg ChoiceConfig, rng *randx.Source) (Plan, bool) {
	bestU := math.Inf(-1)
	var best Plan
	found := false
	for _, p := range c.Plans {
		if p.Dedicated || (cfg.MaxDown > 0 && p.Down > cfg.MaxDown) {
			continue
		}
		u := s.Utility(p)
		if math.IsInf(u, -1) {
			continue
		}
		if cfg.NoiseUSD > 0 && rng != nil {
			u += cfg.NoiseUSD * gumbel(rng)
		}
		if cfg.Current != nil && !samePlan(*cfg.Current, p) {
			u -= float64(cfg.SwitchingCost)
		}
		if u > bestU {
			bestU = u
			best = p
			found = true
		}
	}
	return best, found
}

// samePlan compares the identity fields of two plans.
func samePlan(a, b Plan) bool {
	return a.Country == b.Country && a.ISP == b.ISP && a.Down == b.Down && a.PriceUSD == b.PriceUSD
}

// gumbel draws a standard Gumbel taste shock (logit choice model).
func gumbel(rng *randx.Source) float64 {
	u := rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -math.Log(-math.Log(u))
}
