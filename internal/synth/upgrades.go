package synth

import (
	"fmt"
	"math"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/par"
	"github.com/nwca/broadband/internal/traffic"
	"github.com/nwca/broadband/internal/unit"
)

// upgrades generates the service-switch panel: users observed on a slower
// and then a faster service (Sec. 3.2's within-subject natural experiment).
//
// Two upgrade mechanisms exist in the real world and both are modeled:
//
//   - endogenous: the household's need grew, so it re-chose a faster plan
//     (demand pulled capacity);
//   - exogenous: the ISP re-provisioned the tier at the same price (a
//     speed-bump promotion), so capacity changed with need held fixed —
//     the clean arrow the natural experiment wants to isolate.
//
// The experiments see only before/after usage, exactly like the paper.
func (g *generator) upgrades() error {
	if g.cfg.SwitchTarget == 0 {
		return nil
	}
	primary := g.cfg.Years[len(g.cfg.Years)-1]
	var candidates []*dataset.User
	for i := range g.world.Data.Users {
		u := &g.world.Data.Users[i]
		if u.Vantage == dataset.VantageDasu && u.Year == primary {
			candidates = append(candidates, u)
		}
	}
	return g.upgradesFrom(candidates)
}

// upgradesFrom runs the switch-panel generation over an explicit candidate
// list (primary-year Dasu users in slot order, with ground truth present in
// world.Truth). The in-core build passes every eligible user; the
// out-of-core build passes the bounded candidate pool it retained while
// streaming shards.
func (g *generator) upgradesFrom(candidates []*dataset.User) error {
	if g.cfg.SwitchTarget == 0 {
		return nil
	}
	order := g.rng.Split("switch-order").Perm(len(candidates))

	// Each tryUpgrade is a pure function of its candidate (the RNG splits
	// on the user ID), so candidates are evaluated concurrently in
	// permutation-ordered chunks and successes taken in order until the
	// target is met. The selected switch set is exactly the sequential
	// prefix — chunking only bounds the speculative evaluations past the
	// last accepted candidate — so output is identical for any Workers.
	type switchResult struct {
		sw dataset.Switch
		ok bool
	}
	workers := par.Workers(g.cfg.Workers)
	chunk := 4 * workers
	if chunk < 16 {
		chunk = 16
	}
	made := 0
	for lo := 0; lo < len(order) && made < g.cfg.SwitchTarget; lo += chunk {
		if err := g.ctx.Err(); err != nil {
			return err
		}
		hi := lo + chunk
		if hi > len(order) {
			hi = len(order)
		}
		results := make([]switchResult, hi-lo)
		err := par.ForNCtx(g.ctx, workers, hi-lo, func(i int) error {
			sw, ok, err := g.tryUpgrade(candidates[order[lo+i]])
			results[i] = switchResult{sw: sw, ok: ok}
			return err
		})
		if err != nil {
			return err
		}
		for _, r := range results {
			if made >= g.cfg.SwitchTarget {
				break
			}
			if r.ok {
				g.world.Data.Switches = append(g.world.Data.Switches, r.sw)
				made++
			}
		}
	}
	return nil
}

// tryUpgrade attempts to move one user to a faster service and measure the
// after state.
func (g *generator) tryUpgrade(u *dataset.User) (dataset.Switch, bool, error) {
	truth, ok := g.world.Truth[u.ID]
	if !ok {
		return dataset.Switch{}, false, fmt.Errorf("synth: no ground truth for user %d", u.ID)
	}
	prof, ok := findProfile(g.cfg.Profiles, u.Country)
	if !ok {
		return dataset.Switch{}, false, fmt.Errorf("synth: no profile for %s", u.Country)
	}
	rng := g.rng.SplitN("switch", int(u.ID))
	cat := g.world.Catalogs[u.Country]

	// Upgrade propensity follows utilization pressure: households running
	// their line hot at peak are the ones that shop for a faster tier.
	// This is what skews the paper's switcher population toward slow,
	// saturated services.
	if !rng.Split("pressure").Bool(0.02 + 0.98*math.Pow(u.PeakUtilization(), 2.5)) {
		return dataset.Switch{}, false, nil
	}

	oldPlan := market.Plan{
		Country: u.Country, ISP: u.ISP, Down: u.PlanDown, Up: u.PlanUp,
		PriceUSD: u.PlanPrice, Tech: u.PlanTech,
	}

	newNeed := truth.NeedMbps
	var newPlan market.Plan
	if rng.Bool(0.4) {
		// Exogenous speed bump: the provider moves the subscriber to the
		// next tier up at (about) the old price.
		next, ok := cat.NearestTier(u.PlanDown * 2)
		if !ok || next.Down <= u.PlanDown {
			return dataset.Switch{}, false, nil
		}
		newPlan = next
	} else {
		// Endogenous: need grew; the household re-chooses.
		growth := rng.LogNormalMedian(1.8, 0.3)
		if growth < 1.25 {
			growth = 1.25
		}
		if growth > 5 {
			growth = 5
		}
		newNeed = truth.NeedMbps * growth
		sub := market.Subscriber{
			NeedMbps: newNeed,
			WTP:      unit.USD(wtpPerMbps * headroom * newNeed * incomeFactor(truth.BudgetUSD)),
			Budget:   unit.USD(truth.BudgetUSD * (1 + 0.3*(growth-1))),
			Headroom: headroom,
		}
		chosen, ok := market.Choose(cat, sub, market.ChoiceConfig{
			NoiseUSD:      2 + 0.01*float64(sub.Budget),
			Current:       &oldPlan,
			SwitchingCost: 3,
		}, rng.Split("rechoice"))
		if !ok {
			return dataset.Switch{}, false, nil
		}
		newPlan = chosen
	}
	if newPlan.Down <= u.PlanDown*unit.Bitrate(1.2) {
		return dataset.Switch{}, false, nil // not a meaningful upgrade
	}

	// The line quality is a property of the location: reproduce the
	// original draw.
	userRng := g.rng.SplitN("user", int(u.ID))
	q, _ := drawQuality(prof, newPlan, userRng.Split("quality"))

	meas := measureFast(newPlan, q, rng.Split("measure-after"))
	tq := q
	if g.cfg.DisableQoE {
		tq = traffic.Quality{RTT: 0.02, Loss: 0}
	}
	// The after-epoch is observed months later: the household's overall
	// activity level has drifted, independent of the line change. This
	// behavioral drift is why the paper's within-subject hypothesis holds
	// in ~two-thirds of pairs rather than all of them.
	afterActivity := sessionScale(newNeed) * userRng.Split("budget").LogNormalMedian(1, 0.4) * rng.Split("drift").LogNormalMedian(1, 0.45)
	tgen := &traffic.Generator{
		Capacity: meas.down,
		Quality:  tq,
		Profile: traffic.Profile{
			NeedMbps:         newNeed,
			SessionsPerDay:   traffic.DefaultSessionsPerDay * afterActivity,
			BTUser:           u.UsesBT,
			BTSessionsPerDay: 2.5,
			Archetype:        u.Archetype,
			MonthlyCap:       newPlan.Cap,
		},
	}
	after, err := usage(tgen, g.cfg.Days, rng.Split("traffic-after"), traffic.DasuMask)
	if err != nil {
		return dataset.Switch{}, false, err
	}
	if meas.down <= u.Capacity {
		return dataset.Switch{}, false, nil // quality-limited line: no effective upgrade
	}

	sw := dataset.Switch{
		UserID:   u.ID,
		Country:  u.Country,
		FromNet:  u.NetworkKey,
		ToNet:    fmt.Sprintf("%s/net%d/city%d", newPlan.ISP, rng.IntN(4), rng.IntN(6)),
		FromDown: u.Capacity,
		ToDown:   meas.down,
		Before:   u.Usage,
		After: dataset.UsageSummary{
			Mean:     after.Mean,
			Peak:     after.Peak,
			MeanNoBT: after.MeanNoBT,
			PeakNoBT: after.PeakNoBT,
		},
	}
	return sw, true, nil
}

// incomeFactor recovers the mild income scaling of WTP from the stored
// budget (an approximation; exactness does not matter for re-choice).
func incomeFactor(budgetUSD float64) float64 {
	monthly := budgetUSD / 0.055 // invert the median budget share
	f := monthly * 12 / incomeRef
	if f <= 0 {
		return 1
	}
	return math.Pow(f, 0.3) // the same exponent used at first choice
}
