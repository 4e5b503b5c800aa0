package synth

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/par"
	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/traffic"
	"github.com/nwca/broadband/internal/unit"
)

// wtpPerMbps is the base willingness to pay per Mbps of (headroom-adjusted)
// need, at the US income reference. Together with headroom it is solved
// from the paper's two capacity anchors: the interior optimum of the choice
// model is c* = headroom·need·ln(wtp/slope), and (US: slope 0.55, c* ≈ 18;
// Japan: slope 0.08, c* ≈ 28) pins wtp ≈ 17.7 and headroom ≈ 1.53.
const wtpPerMbps = 17.7

// headroom is the value-curve stretch beyond raw need (see market.Subscriber).
const headroom = 1.85

// incomeRef anchors the WTP income scaling.
const incomeRef = 49797.0

type generator struct {
	ctx   context.Context
	cfg   Config
	world *World
	rng   *randx.Source
}

// maxAffordAttempts bounds the household redraws per user slot. It is also
// the ID stride: slot j owns the deterministic ID range
// [1+j·maxAffordAttempts, 1+(j+1)·maxAffordAttempts), so every draw is a
// pure function of the world seed and the slot position — the property that
// lets slots generate concurrently with byte-identical output.
const maxAffordAttempts = 12

// userSlot is one unit of generation work: a single household of a
// (year, country, vantage) cohort with its precomputed ID range.
type userSlot struct {
	prof      market.Profile
	year      int
	needScale float64
	vantage   dataset.Vantage
	baseID    int64
}

// slotResult is what one slot produced: a subscriber, or nothing (the
// market priced every redraw out).
type slotResult struct {
	user  *dataset.User
	truth GroundTruth
}

// cohort is a contiguous run of identically parameterized user slots in the
// canonical world order: one (year, country, vantage) block. Slot j of a
// cohort owns ID base baseID + j·maxAffordAttempts.
type cohort struct {
	prof      market.Profile
	year      int
	needScale float64
	vantage   dataset.Vantage
	start     int   // global index of the cohort's first slot
	n         int   // slots in the cohort
	baseID    int64 // ID base of the first slot
	// primBefore counts the primary-year Dasu slots laid out before this
	// cohort — the slot's rank within the switch-candidate universe.
	primBefore int
}

// slotLayout is the compact description of every user slot of a world:
// cohort runs instead of per-slot records, so it stays a few hundred
// entries even for a 10M-user world (DESIGN.md §8). It is a pure function
// of the config — any two builds of the same config agree on every slot's
// parameters and ID range before a single user is generated, which is what
// lets shards (and workers) generate independently with identical bytes.
type slotLayout struct {
	cohorts     []cohort
	total       int
	primaryYear int
	primaryDasu int // total primary-year Dasu slots (switch candidates)
}

// layout computes the world's slot layout in canonical order: yearly Dasu
// cohorts (years in config order, countries in profile order), then the US
// gateway panel.
func (g *generator) layout() (*slotLayout, error) {
	years := g.cfg.Years
	l := &slotLayout{primaryYear: years[len(years)-1]}
	nextBase := int64(1)
	add := func(prof market.Profile, year int, needScale float64, vantage dataset.Vantage, n int) {
		if n <= 0 {
			return
		}
		l.cohorts = append(l.cohorts, cohort{
			prof: prof, year: year, needScale: needScale, vantage: vantage,
			start: l.total, n: n, baseID: nextBase, primBefore: l.primaryDasu,
		})
		if year == l.primaryYear && vantage == dataset.VantageDasu {
			l.primaryDasu += n
		}
		l.total += n
		nextBase += int64(n) * maxAffordAttempts
	}
	for _, year := range years {
		// Earlier cohorts are smaller (subscriber growth) and carry lower
		// latent need (traffic growth).
		age := float64(l.primaryYear - year)
		scale := math.Pow(g.cfg.YearGrowth, -age)
		needScale := math.Pow(g.cfg.NeedGrowth, -age)
		total := int(math.Round(float64(g.cfg.Users) * scale))
		minPer := 0
		if year == l.primaryYear {
			minPer = g.cfg.MinPerCountry
		}
		counts := countryCounts(g.cfg.Profiles, total, minPer)
		for _, prof := range g.cfg.Profiles {
			add(prof, year, needScale, dataset.VantageDasu, counts[prof.Country.Code])
		}
	}
	// The gateway (FCC) panel: US-only, primary year, uniform sampling.
	usProf, ok := findProfile(g.cfg.Profiles, "US")
	if !ok {
		return nil, fmt.Errorf("synth: gateway panel needs a US profile")
	}
	add(usProf, l.primaryYear, 1, dataset.VantageGateway, g.cfg.FCCUsers)
	return l, nil
}

// find returns the cohort containing global slot i.
func (l *slotLayout) find(i int) *cohort {
	j := sort.Search(len(l.cohorts), func(k int) bool { return l.cohorts[k].start > i }) - 1
	return &l.cohorts[j]
}

// slot materializes global slot i.
func (l *slotLayout) slot(i int) userSlot {
	c := l.find(i)
	return userSlot{
		prof: c.prof, year: c.year, needScale: c.needScale, vantage: c.vantage,
		baseID: c.baseID + int64(i-c.start)*maxAffordAttempts,
	}
}

// primaryDasuRank returns slot i's 0-based position within the primary-year
// Dasu slots — the switch-candidate universe — in slot order; ok is false
// for every other slot.
func (l *slotLayout) primaryDasuRank(i int) (int, bool) {
	c := l.find(i)
	if c.year != l.primaryYear || c.vantage != dataset.VantageDasu {
		return 0, false
	}
	return c.primBefore + (i - c.start), true
}

// populate generates every yearly cohort of the Dasu panel plus the US
// gateway panel, fanning the layout's slots out over GOMAXPROCS goroutines
// and merging results in canonical slot order.
func (g *generator) populate() error {
	lay, err := g.layout()
	if err != nil {
		return err
	}
	results := make([]slotResult, lay.total)
	err = par.ForNCtx(g.ctx, runtime.GOMAXPROCS(0), lay.total, func(i int) error {
		r, err := g.generateSlot(lay.slot(i))
		results[i] = r
		return err
	})
	if err != nil {
		return err
	}
	// Merge sequentially into the columnar panel (dictionary interning is
	// order-sensitive and single-threaded); SetUsers installs it as the
	// users table and derives the row form from it.
	g.world.Skipped = make(map[string]int)
	panel := dataset.NewPanel(lay.total)
	for i := range results {
		if results[i].user == nil {
			g.world.Skipped[lay.find(i).prof.Country.Code]++
			continue
		}
		panel.Append(results[i].user)
		g.world.Truth[results[i].user.ID] = results[i].truth
	}
	g.world.Data.SetUsers(panel)
	return nil
}

func findProfile(profiles []market.Profile, code string) (market.Profile, bool) {
	for _, p := range profiles {
		if p.Country.Code == code {
			return p, true
		}
	}
	return market.Profile{}, false
}

// generateSlot draws one subscriber: economy → plan choice → line quality →
// measurement → usage. Households that cannot afford any plan are redrawn
// (the offline population simply never enters a measurement panel); after
// a bounded number of attempts the slot stays empty and the shortfall is
// recorded in World.Skipped. The draw depends only on the world seed and
// the slot's ID range, never on other slots, so it is safe to run
// concurrently against the read-only catalogs and market summaries.
func (g *generator) generateSlot(s userSlot) (slotResult, error) {
	prof, year, needScale, vantage := s.prof, s.year, s.needScale, s.vantage
	cat := g.world.Catalogs[prof.Country.Code]
	for attempt := 0; attempt < maxAffordAttempts; attempt++ {
		id := s.baseID + int64(attempt)
		rng := g.rng.SplitN("user", int(id))

		// Availability friction: a share of households can only buy what
		// their street is wired for (legacy DSL footprints, no cable/fiber
		// build-out yet) — the 2011–2013 reality that kept part of the
		// population on slow tiers. Legacy footprints skew rural and toward
		// lighter-using households, so these subscribers also carry reduced
		// latent demand.
		needMult := 1.0
		var limit unit.Bitrate
		if avail := rng.Split("avail"); avail.Bool(availabilityShare) {
			needMult = 0.35 + 0.25*avail.Float64()
			// The street-level limit tracks the era: legacy footprints were
			// slower in earlier cohort years and improve alongside demand
			// (the infrastructure half of the "jump to a higher service"
			// dynamic).
			limit = unit.MbpsOf(avail.LogNormalMedian(3*needScale, 0.5))
			if !offersUpTo(cat, limit) {
				limit = 0 // nothing that slow on sale: the full catalog applies
			}
		}
		sub, truth := drawSubscriber(prof, needScale*needMult, rng)
		plan, ok := market.Choose(cat, sub, market.ChoiceConfig{NoiseUSD: 2 + 0.015*float64(sub.Budget), MaxDown: limit}, rng.Split("choice"))
		if !ok {
			continue // cannot afford broadband; resample the household
		}

		u, err := g.realizeUser(id, prof, year, vantage, plan, &truth, rng)
		if err != nil {
			return slotResult{}, err
		}
		return slotResult{user: u, truth: truth}, nil
	}
	return slotResult{}, nil // market too expensive for this draw sequence: a skipped household
}

// needIncomeCorr couples latent demand to household income: wealthier
// households run more devices and consume more. This correlation is what
// lets access-price selection (only the affluent subscribe in expensive
// markets) translate into higher demand per unit capacity — the causal
// channel behind the paper's Table 3.
const needIncomeCorr = 0.65

// drawSubscriber samples the household economics and latent demand.
func drawSubscriber(prof market.Profile, needScale float64, rng *randx.Source) (market.Subscriber, GroundTruth) {
	econ := rng.Split("econ")
	// Correlated log-normal draws for income and need.
	zIncome := econ.Normal(0, 1)
	zNeed := needIncomeCorr*zIncome + math.Sqrt(1-needIncomeCorr*needIncomeCorr)*rng.Split("need").Normal(0, 1)
	need := prof.NeedMedianMbps * needScale * math.Exp(prof.NeedSigma*zNeed)
	if need < 0.1 {
		need = 0.1
	}
	if need > 60 {
		need = 60
	}
	// Household income around the national level, heavy-tailed; measurement
	// panels skew slightly affluent.
	income := prof.Country.GDPPerCapitaPPP / 12 * 1.15 * math.Exp(0.65*zIncome)
	// Budget: the share of monthly income a household will spend on
	// broadband. Tight enough that mid-priced markets see real
	// affordability selection (2013 broadband penetration in middle-income
	// countries sat near 30–50%, versus 70%+ in rich ones).
	share := econ.TruncNormal(0.03, 0.018, 0.007, 0.11)
	budget := income * share
	// Willingness to pay scales with income (mildly) and with need.
	wtp := wtpPerMbps * math.Pow(income*12/incomeRef, 0.3) * headroom * need
	sub := market.Subscriber{
		NeedMbps: need,
		WTP:      unit.USD(wtp),
		Budget:   unit.USD(budget),
		Headroom: headroom,
	}
	return sub, GroundTruth{NeedMbps: need, BudgetUSD: budget}
}

// realizeUser measures the line and generates usage for a chosen plan.
func (g *generator) realizeUser(id int64, prof market.Profile, year int, vantage dataset.Vantage, plan market.Plan, truth *GroundTruth, rng *randx.Source) (*dataset.User, error) {
	q, satellite := drawQuality(prof, plan, rng.Split("quality"))
	truth.Satellite = satellite
	truth.QoE = traffic.QoEFactor(q)
	if g.cfg.DisableQoE {
		truth.QoE = 1
	}

	meas := measureFast(plan, q, rng.Split("measure"))

	btUser := vantage == dataset.VantageDasu && rng.Split("bt").Bool(prof.BTShare)
	archetype, err := drawArchetype(rng.Split("archetype"))
	if err != nil {
		return nil, err
	}
	profile := traffic.Profile{
		NeedMbps: truth.NeedMbps,
		// The session budget is where latent need expresses itself as
		// activity volume (hungrier households run more sessions).
		SessionsPerDay:   traffic.DefaultSessionsPerDay * sessionScale(truth.NeedMbps) * rng.Split("budget").LogNormalMedian(1, 0.4),
		BTUser:           btUser,
		BTSessionsPerDay: 2.5,
		Archetype:        archetype,
		MonthlyCap:       plan.Cap,
	}
	tq := q
	if g.cfg.DisableQoE {
		// Ablation world: sever the quality→demand arrow entirely (both
		// the behavioral suppression and the TCP-feasibility ceiling) by
		// generating traffic as if every line were pristine. The recorded
		// measurements still reflect the true line, so the latency/loss
		// experiments run unchanged — and must now come out null.
		tq = traffic.Quality{RTT: 0.02, Loss: 0}
	}
	tgen := &traffic.Generator{
		Capacity: meas.down,
		Quality:  tq,
		Profile:  profile,
	}
	mask := traffic.GatewayMask
	if vantage == dataset.VantageDasu {
		mask = traffic.DasuMask
	}
	sum, err := usage(tgen, g.cfg.Days, rng.Split("traffic"), mask)
	if err != nil {
		return nil, err
	}

	netIdx := rng.Split("net").IntN(4)
	city := rng.Split("city").IntN(6)
	u := &dataset.User{
		ID:         id,
		Country:    prof.Country.Code,
		Vantage:    vantage,
		Year:       year,
		ISP:        plan.ISP,
		NetworkKey: fmt.Sprintf("%s/net%d/city%d", plan.ISP, netIdx, city),
		PlanDown:   plan.Down,
		PlanUp:     plan.Up,
		PlanPrice:  plan.PriceUSD,
		PlanTech:   plan.Tech,
		PlanCap:    plan.Cap,
		Capacity:   meas.down,
		UpCapacity: meas.up,
		RTT:        meas.rtt,
		WebRTT:     meas.webRTT,
		Loss:       meas.loss,
		Usage: dataset.UsageSummary{
			Mean:     sum.Mean,
			Peak:     sum.Peak,
			MeanNoBT: sum.MeanNoBT,
			PeakNoBT: sum.PeakNoBT,
		},
		UsesBT:      btUser,
		Archetype:   archetype,
		AccessPrice: g.world.Data.Markets[prof.Country.Code].AccessPrice,
		UpgradeCost: unit.PerMbps(g.world.Data.Markets[prof.Country.Code].Upgrade.Slope),
	}
	return u, nil
}

// scratches holds the traffic buffers of the world build's workers: each
// usage call borrows one for its user, so a build allocates them about
// once per worker instead of once per user.
var scratches = sync.Pool{New: func() any { return new(traffic.Scratch) }}

// usage generates a household's traffic over the horizon and summarises it
// under the vantage's sampling mask, on a borrowed scratch.
func usage(tgen *traffic.Generator, days int, rng *randx.Source, mask traffic.SampleMask) (traffic.Summary, error) {
	sc := scratches.Get().(*traffic.Scratch)
	defer scratches.Put(sc)
	series, err := tgen.GenerateWith(sc, days, rng)
	if err != nil {
		return traffic.Summary{}, err
	}
	return series.Summarize(mask)
}

// availabilityShare is the fraction of households whose street is only
// wired for a slow legacy tier regardless of what the market sells.
const availabilityShare = 0.12

// offersUpTo reports whether the catalog sells a shared plan at or below
// the availability limit.
func offersUpTo(cat market.Catalog, limit unit.Bitrate) bool {
	for _, p := range cat.Plans {
		if !p.Dedicated && p.Down <= limit {
			return true
		}
	}
	return false
}

// sessionScale converts latent need into a session-budget multiplier. The
// sublinear power and the cap reflect the finite hours in a household day.
func sessionScale(needMbps float64) float64 {
	if needMbps <= 0 {
		return 1
	}
	s := math.Pow(needMbps/2.5, 0.45)
	if s > 1.5 {
		s = 1.5
	}
	return s
}

// drawArchetype samples a household application-mix category from the
// population shares. A malformed (empty) archetype table surfaces as an
// error rather than panicking mid-generation.
func drawArchetype(rng *randx.Source) (traffic.Archetype, error) {
	archetypes := traffic.Archetypes()
	weights := make([]float64, len(archetypes))
	for i, a := range archetypes {
		weights[i] = traffic.ArchetypeShares[a]
	}
	i, err := rng.CategoricalErr(weights)
	if err != nil {
		return 0, fmt.Errorf("synth: archetype shares: %w", err)
	}
	return archetypes[i], nil
}

// drawQuality samples the line's latency and loss from the country profile,
// with satellite/fixed-wireless overrides for that share of users.
func drawQuality(prof market.Profile, plan market.Plan, rng *randx.Source) (traffic.Quality, bool) {
	satellite := rng.Bool(prof.SatelliteShare) || plan.Tech == market.Satellite
	rtt := rng.LogNormalMedian(prof.BaseRTTms/1000, prof.RTTSigma)
	lossPct := rng.LogNormalMedian(prof.LossMedianPct, prof.LossSigma)
	if satellite {
		rtt += 0.45 + 0.25*rng.Float64()
		lossPct *= 3 + 4*rng.Float64()
	}
	if rtt < 0.004 {
		rtt = 0.004
	}
	if rtt > 4 {
		rtt = 4
	}
	if lossPct < 0.001 {
		lossPct = 0.001
	}
	if lossPct > 15 {
		lossPct = 15
	}
	return traffic.Quality{RTT: rtt, Loss: unit.LossFromPercent(lossPct)}, satellite
}
