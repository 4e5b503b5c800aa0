// Package synth generates the study's three datasets from a single seed:
// the end-host (Dasu-style) user panel, the US residential-gateway
// (FCC-style) panel, and the retail-plan survey. It wires the market model
// (who subscribes to what, and why), the traffic model (what they then do
// with it), and the line-measurement model (what the measurements see)
// into dataset records with the paper's schema.
package synth

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/randx"
)

// Config parameterizes a world generation.
type Config struct {
	Seed uint64
	// Users is the target number of end-host (Dasu) users per primary
	// year, distributed across countries by profile weight.
	Users int
	// FCCUsers is the size of the US gateway panel.
	FCCUsers int
	// Days is the per-user observation window in simulated days.
	Days int
	// Years lists the longitudinal cohort years; the last is the primary
	// year carrying the Users target. Earlier years shrink by YearGrowth.
	Years []int
	// YearGrowth is the year-over-year subscriber growth factor (>1) and
	// drives both cohort sizes and the latent-need drift between years.
	YearGrowth float64
	// NeedGrowth is the year-over-year growth of median latent demand —
	// the "fourfold global traffic growth" driver that shifts users to
	// higher classes rather than raising within-class demand.
	NeedGrowth float64
	// SwitchTarget is the number of service-upgrade (before/after) records
	// to generate for the within-subject experiments.
	SwitchTarget int
	// MinPerCountry floors each country's primary-year population so tier
	// analyses in small worlds keep their case-study markets (0 disables).
	MinPerCountry int
	// Profiles overrides the built-in market world (ablation worlds).
	Profiles []market.Profile
	// DisableQoE severs the quality→demand causal arrow: an ablation world
	// in which the latency/loss experiments must come out null.
	DisableQoE bool
}

// withDefaults fills unset (zero) fields. It deliberately defaults only on
// the zero value — a negative count or growth factor is left in place for
// validate to reject, and a non-nil empty Years slice is an error, not a
// request for the default cohort set. Scenario deltas may legitimately set
// growth factors in (0, 1] (a flat- or shrinking-demand regime), so those
// are no longer clamped to the defaults.
func (c Config) withDefaults() Config {
	if c.Users == 0 {
		c.Users = 2000
	}
	if c.FCCUsers == 0 {
		c.FCCUsers = c.Users / 4
	}
	if c.Days <= 0 {
		c.Days = 3
	}
	if c.Years == nil {
		c.Years = []int{2011, 2012, 2013}
	}
	if c.YearGrowth == 0 {
		c.YearGrowth = 1.35
	}
	if c.NeedGrowth == 0 {
		// Modest per-household drift: the paper's Fig. 6 finds within-class
		// demand constant, so most traffic growth must come from cohort
		// growth and class jumps, not from households using a given class
		// harder. 15%/year keeps the cross-year experiment null while the
		// switch panel carries the demand-growth story.
		c.NeedGrowth = 1.12
	}
	if c.SwitchTarget < 0 {
		c.SwitchTarget = 0
	} else if c.SwitchTarget == 0 && c.Users > 0 {
		c.SwitchTarget = c.Users / 4
	}
	if c.Profiles == nil {
		c.Profiles = market.World()
	}
	return c
}

// WithDefaults returns the config with every unset field filled the way
// Build will fill it. The scenario runner uses it to echo the effective
// world scale in its report.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// ErrInvalidConfig tags every Config validation failure; test with
// errors.Is. The concrete error is a *ConfigError naming the field.
var ErrInvalidConfig = errors.New("invalid synth config")

// ConfigError reports one invalid Config field.
type ConfigError struct {
	Field string // the offending Config field
	Msg   string // what is wrong with it
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("synth: invalid config: %s: %s", e.Field, e.Msg)
}

func (e *ConfigError) Unwrap() error { return ErrInvalidConfig }

// validate rejects configs that defaulting could not repair. It runs after
// withDefaults, so a zero field has already been filled; what remains
// invalid was set deliberately (scenario deltas can produce every one of
// these) and must fail loudly rather than generate a nonsense world.
func (c Config) validate() error {
	if c.Users < 0 {
		return &ConfigError{Field: "Users", Msg: fmt.Sprintf("negative user count %d", c.Users)}
	}
	if c.FCCUsers < 0 {
		return &ConfigError{Field: "FCCUsers", Msg: fmt.Sprintf("negative user count %d", c.FCCUsers)}
	}
	if len(c.Years) == 0 {
		return &ConfigError{Field: "Years", Msg: "empty cohort-year list"}
	}
	if c.YearGrowth <= 0 {
		return &ConfigError{Field: "YearGrowth", Msg: fmt.Sprintf("growth factor %v must be > 0", c.YearGrowth)}
	}
	if c.NeedGrowth <= 0 {
		return &ConfigError{Field: "NeedGrowth", Msg: fmt.Sprintf("growth factor %v must be > 0", c.NeedGrowth)}
	}
	if len(c.Profiles) == 0 {
		return &ConfigError{Field: "Profiles", Msg: "no market profiles"}
	}
	return nil
}

// World is the generated world: the dataset plus the generator-side ground
// truth that tests use to validate the inference machinery.
type World struct {
	Data dataset.Dataset
	// Catalogs are the per-country plan catalogs behind the survey.
	Catalogs map[string]market.Catalog
	// Profiles are the market profiles used.
	Profiles []market.Profile
	// Truth holds per-user latent variables (keyed by user ID) that no
	// real study could observe; placebo and recovery tests read them.
	Truth map[int64]GroundTruth
	// Skipped counts, per country code, the households that exhausted every
	// affordability redraw without finding a plan they could pay for — the
	// population shortfall between requested and generated panel sizes.
	Skipped map[string]int
}

// SkippedHouseholds returns the total number of user slots that produced no
// subscriber because the market priced every draw out. When it is nonzero,
// len(Data.Users) falls short of the configured population by exactly this
// amount.
func (w *World) SkippedHouseholds() int {
	total := 0
	for _, n := range w.Skipped {
		total += n
	}
	return total
}

// GroundTruth is the latent state of one synthetic user.
type GroundTruth struct {
	NeedMbps  float64
	BudgetUSD float64
	Satellite bool
	QoE       float64
}

// Build generates a world.
func Build(cfg Config) (*World, error) {
	return BuildCtx(context.Background(), cfg)
}

// BuildCtx is Build with cancellation: generation stops at the next slot
// (or candidate chunk) boundary once ctx is cancelled and returns ctx.Err().
// A cancelled build returns no world — there is no partially generated
// output to misuse. Determinism is unaffected: a run that completes under
// any ctx is byte-identical to Build.
func BuildCtx(ctx context.Context, cfg Config) (*World, error) {
	gen, err := newGenerator(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := gen.populate(); err != nil {
		return nil, err
	}
	if err := gen.upgrades(); err != nil {
		return nil, err
	}
	if err := gen.world.Data.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated dataset invalid: %w", err)
	}
	return gen.world, nil
}

// newGenerator applies the config defaults and builds the world frame —
// plan catalogs, market summaries, the plan survey — shared by the in-core
// build (BuildCtx) and the out-of-core build (BuildSharded). The frame is
// read-only during user generation.
func newGenerator(ctx context.Context, cfg Config) (*generator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	root := randx.New(cfg.Seed)

	w := &World{
		Catalogs: market.BuildAllCatalogs(cfg.Profiles, root.Split("catalogs")),
		Profiles: cfg.Profiles,
		Truth:    make(map[int64]GroundTruth),
	}
	w.Data.Markets = make(map[string]market.MarketSummary, len(cfg.Profiles))
	// Iterate catalogs in sorted country order: map order would otherwise
	// leak into the plan-survey ordering and break run-to-run determinism.
	codes := make([]string, 0, len(w.Catalogs))
	for code := range w.Catalogs {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		cat := w.Catalogs[code]
		sum, err := market.Summarize(cat)
		if err != nil {
			return nil, fmt.Errorf("synth: market %s: %w", code, err)
		}
		w.Data.Markets[code] = sum
		w.Data.Plans = append(w.Data.Plans, cat.Plans...)
	}
	return &generator{ctx: ctx, cfg: cfg, world: w, rng: root}, nil
}

// countryCounts allocates a population across countries proportionally to
// profile weights by largest-remainder apportionment, so the counts sum to
// exactly total; the minPer floor is applied afterwards and is the only way
// the sum can exceed the target.
func countryCounts(profiles []market.Profile, total, minPer int) map[string]int {
	sum := 0.0
	for _, p := range profiles {
		if p.UserWeight > 0 {
			sum += p.UserWeight
		}
	}
	if total < 0 {
		total = 0
	}
	alloc := make([]int, len(profiles))
	if sum > 0 && total > 0 {
		frac := make([]float64, len(profiles))
		given := 0
		for i, p := range profiles {
			if p.UserWeight <= 0 {
				continue
			}
			exact := float64(total) * p.UserWeight / sum
			alloc[i] = int(math.Floor(exact))
			frac[i] = exact - float64(alloc[i])
			given += alloc[i]
		}
		// Hand the integer shortfall to the largest fractional remainders;
		// the stable sort breaks ties by profile order, keeping the
		// apportionment deterministic.
		order := make([]int, len(profiles))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
		for k := 0; k < total-given; k++ {
			alloc[order[k]]++
		}
	}
	out := make(map[string]int, len(profiles))
	for i, p := range profiles {
		n := alloc[i]
		if n < minPer {
			n = minPer
		}
		if n > 0 {
			out[p.Country.Code] = n
		}
	}
	return out
}
