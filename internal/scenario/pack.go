// Package scenario runs declarative counterfactual worlds against the
// reproduction registry. A scenario pack is a JSON file declaring (a) a set
// of deltas on top of the baseline world — synth.Config overrides and
// per-country market interventions — and (b) an expectations block of
// golden assertions, including the differential ops that compare scenario
// artifacts against the baseline world at the same seed. The runner builds
// baseline + N counterfactual worlds concurrently, evaluates every
// expectation at every seed, and reports opa-test-style: one PASS/FAIL line
// per assertion, a summary count, exit 1 on any FAIL.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"github.com/nwca/broadband/internal/experiments"
	"github.com/nwca/broadband/internal/golden"
)

// Pack is one declarative counterfactual scenario.
type Pack struct {
	// Name identifies the pack in reports; it must match ^[a-z0-9-]+$ and,
	// for packs loaded from disk, the filename stem.
	Name string `json:"name"`
	// Description says what real-world intervention the pack models and
	// which part of the paper grounds the expectations.
	Description string `json:"description,omitempty"`
	// Deltas transform the baseline world into the counterfactual.
	Deltas Deltas `json:"deltas"`
	// Expect lists the assertions, grouped by registry artifact.
	Expect []Expectation `json:"expect"`
}

// Deltas is the world transformation of a pack. A pack with zero deltas is
// rejected at load time: a counterfactual that changes nothing tests
// nothing the golden gate does not already cover.
type Deltas struct {
	Config  *ConfigDelta  `json:"config,omitempty"`
	Markets []MarketDelta `json:"markets,omitempty"`
}

// ConfigDelta overrides synth.Config fields. Pointer fields distinguish
// "leave the baseline value" (null/absent) from an explicit zero, which
// Config validation will reject where it is invalid.
type ConfigDelta struct {
	// YearGrowth / NeedGrowth sweep the demand-regime factors (values in
	// (0,1] model flat or shrinking regimes).
	YearGrowth *float64 `json:"year_growth,omitempty"`
	NeedGrowth *float64 `json:"need_growth,omitempty"`
	// Years replaces the cohort-year list.
	Years []int `json:"years,omitempty"`
	// DisableQoE is the existing quality→demand ablation.
	DisableQoE *bool `json:"disable_qoe,omitempty"`
}

// MarketDelta applies one intervention to the market profiles of the
// selected countries. Scale fields multiply the profile value (zero =
// leave alone); the policy levers map one-to-one onto market.Profile's
// post-draw policy fields, so they never perturb the catalog RNG stream.
type MarketDelta struct {
	// Countries selects profiles by ISO code; empty selects every country.
	Countries []string `json:"countries,omitempty"`

	// Profile scalars (applied before catalog generation; RNG-neutral
	// because they change no draw decision, only priced values).
	AccessPriceScale float64 `json:"access_price_scale,omitempty"`
	UpgradeCostScale float64 `json:"upgrade_cost_scale,omitempty"`
	// SatelliteShareScale scales the fraction of lines on satellite/
	// fixed-wireless technology — the tech-mix lever with a measurable
	// quality consequence (satellite lines carry the long-RTT, bursty-loss
	// tail of Fig. 1).
	SatelliteShareScale float64 `json:"satellite_share_scale,omitempty"`

	// Post-draw catalog policy levers (see market.Profile).
	PriceScale      float64 `json:"price_scale,omitempty"`
	TierPriceCapUSD float64 `json:"tier_price_cap_usd,omitempty"`
	CapScale        float64 `json:"cap_scale,omitempty"`
	UncapAll        bool    `json:"uncap_all,omitempty"`
	FiberAboveMbps  float64 `json:"fiber_above_mbps,omitempty"`
}

func (d MarketDelta) empty() bool {
	return d.AccessPriceScale == 0 && d.UpgradeCostScale == 0 &&
		d.SatelliteShareScale == 0 && d.PriceScale == 0 &&
		d.TierPriceCapUSD == 0 && d.CapScale == 0 &&
		!d.UncapAll && d.FiberAboveMbps == 0
}

// Expectation is the check set against one registry (or extension)
// artifact of the scenario world. Differential checks additionally read
// the same artifact from the baseline world at the same seed.
type Expectation struct {
	// Artifact is a registry or extension ID ("Fig. 7", "Ext. A").
	Artifact string         `json:"artifact"`
	Checks   []golden.Check `json:"checks"`
}

var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// Validate rejects malformed packs: bad names, unknown artifacts, empty
// deltas or expectations, and checks golden would refuse.
func (p *Pack) Validate() error {
	if !nameRe.MatchString(p.Name) {
		return fmt.Errorf("pack name %q must match %s", p.Name, nameRe)
	}
	if p.Deltas.Config == nil && len(p.Deltas.Markets) == 0 {
		return fmt.Errorf("pack %s: no deltas — a scenario must change the world", p.Name)
	}
	for i, m := range p.Deltas.Markets {
		if m.empty() {
			return fmt.Errorf("pack %s: market delta %d changes nothing", p.Name, i)
		}
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"access_price_scale", m.AccessPriceScale},
			{"upgrade_cost_scale", m.UpgradeCostScale},
			{"satellite_share_scale", m.SatelliteShareScale},
			{"price_scale", m.PriceScale},
			{"tier_price_cap_usd", m.TierPriceCapUSD},
			{"cap_scale", m.CapScale},
			{"fiber_above_mbps", m.FiberAboveMbps},
		} {
			if f.v < 0 {
				return fmt.Errorf("pack %s: market delta %d: negative %s", p.Name, i, f.name)
			}
		}
	}
	if len(p.Expect) == 0 {
		return fmt.Errorf("pack %s: no expectations", p.Name)
	}
	seen := make(map[string]bool)
	for _, e := range p.Expect {
		if _, ok := experiments.Lookup(e.Artifact); !ok {
			return fmt.Errorf("pack %s: unknown artifact %q", p.Name, e.Artifact)
		}
		if len(e.Checks) == 0 {
			return fmt.Errorf("pack %s: artifact %s: no checks", p.Name, e.Artifact)
		}
		for _, c := range e.Checks {
			if c.Name == "" {
				return fmt.Errorf("pack %s: artifact %s: unnamed check", p.Name, e.Artifact)
			}
			key := e.Artifact + "\x00" + c.Name
			if seen[key] {
				return fmt.Errorf("pack %s: artifact %s: duplicate check %q", p.Name, e.Artifact, c.Name)
			}
			seen[key] = true
			if err := c.Validate(); err != nil {
				return fmt.Errorf("pack %s: artifact %s, check %q: %w", p.Name, e.Artifact, c.Name, err)
			}
		}
	}
	return nil
}

// artifacts returns the artifact IDs the pack reads, deduplicated in
// first-reference order.
func (p *Pack) artifacts() []string {
	var ids []string
	seen := make(map[string]bool)
	for _, e := range p.Expect {
		if !seen[e.Artifact] {
			seen[e.Artifact] = true
			ids = append(ids, e.Artifact)
		}
	}
	return ids
}

// ParsePack decodes and validates one pack document.
func ParsePack(data []byte) (*Pack, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Pack
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return &p, nil
}

// LoadPack reads one pack file. The filename stem must equal the declared
// name, so reports, -run filters and the files on disk agree.
func LoadPack(file string) (*Pack, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	p, err := ParsePack(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if stem := strings.TrimSuffix(filepath.Base(file), ".json"); stem != p.Name {
		return nil, fmt.Errorf("%s: pack name %q does not match filename stem %q", file, p.Name, stem)
	}
	return p, nil
}

// LoadDir loads every *.json pack in a directory, sorted by name.
func LoadDir(dir string) ([]*Pack, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	if len(matches) == 0 {
		return nil, fmt.Errorf("scenario: no packs in %s", dir)
	}
	packs := make([]*Pack, 0, len(matches))
	names := make(map[string]bool)
	for _, m := range matches {
		p, err := LoadPack(m)
		if err != nil {
			return nil, err
		}
		if names[p.Name] {
			return nil, fmt.Errorf("scenario: duplicate pack name %q", p.Name)
		}
		names[p.Name] = true
		packs = append(packs, p)
	}
	return packs, nil
}
