// Package dataset defines the record schemas shared by the three synthetic
// datasets (end-host/Dasu, residential-gateway/FCC, and the retail-plan
// survey), their CSV serialization, and the selection helpers the
// experiments use to slice populations.
//
// The schema mirrors what the paper's pipeline had after joining its
// sources: per-user measured service characteristics (capacity, latency,
// loss), usage summaries with and without BitTorrent traffic, the
// subscriber's plan, and the per-market price metrics.
package dataset

import (
	"fmt"

	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/traffic"
	"github.com/nwca/broadband/internal/unit"
)

// Vantage distinguishes the two measurement platforms the paper combines.
type Vantage int

// The measurement platforms.
const (
	// VantageDasu is the end-host platform: global coverage, 30-second
	// byte counters, sampling biased toward the hours the client runs
	// (evenings), BitTorrent visibility.
	VantageDasu Vantage = iota
	// VantageGateway is the FCC/SamKnows residential-gateway platform:
	// US-only, uniform 24-hour sampling, whole-home counters, no
	// application attribution.
	VantageGateway
)

// String names the vantage the way the paper's figures label it.
func (v Vantage) String() string {
	switch v {
	case VantageDasu:
		return "Dasu"
	case VantageGateway:
		return "FCC"
	default:
		return fmt.Sprintf("Vantage(%d)", int(v))
	}
}

// UsageSummary is the pair of demand metrics the paper computes from each
// user's byte-counter time series: the mean rate and the 95th-percentile
// ("peak") rate of 30-second samples, each with and without BitTorrent
// intervals.
type UsageSummary struct {
	Mean     unit.Bitrate // all traffic
	Peak     unit.Bitrate // 95th percentile, all traffic
	MeanNoBT unit.Bitrate // BitTorrent-active intervals excluded
	PeakNoBT unit.Bitrate
}

// User is one subscriber observation: the join of measurements, usage and
// market context the experiments consume.
type User struct {
	ID      int64
	Country string // ISO code
	Vantage Vantage
	Year    int // observation year (the longitudinal panel spans 2011–2013)

	// Network identity: the paper keys networks by (ISP, prefix, city).
	ISP        string
	NetworkKey string

	// Subscribed plan.
	PlanDown  unit.Bitrate
	PlanUp    unit.Bitrate
	PlanPrice unit.USD
	PlanTech  market.Technology
	PlanCap   unit.ByteSize // monthly traffic allowance; 0 = unlimited

	// Measured service characteristics (NDT-style).
	Capacity   unit.Bitrate // measured maximum download capacity
	UpCapacity unit.Bitrate
	RTT        float64 // average RTT to nearest measurement server, seconds
	WebRTT     float64 // median RTT to popular websites, seconds (2014 addition; 0 if absent)
	Loss       unit.LossRate

	// Demand.
	Usage  UsageSummary
	UsesBT bool
	// Archetype is the household's application-mix category.
	Archetype traffic.Archetype

	// Market context (joined from the plan survey).
	AccessPrice unit.USD     // price of broadband access in the user's market
	UpgradeCost unit.PerMbps // cost of increasing capacity in the user's market
}

// PeakUtilization returns peak (no-BT) usage as a fraction of measured
// capacity — the metric behind Figs. 7b and 8.
func (u *User) PeakUtilization() float64 {
	if u.Capacity <= 0 {
		return 0
	}
	frac := float64(u.Usage.PeakNoBT) / float64(u.Capacity)
	if frac > 1 {
		frac = 1
	}
	return frac
}

// Switch records one service change of a single user: the within-subject
// natural experiment of Sec. 3.2. Before/After usage summaries are measured
// on the slower and faster network respectively.
type Switch struct {
	UserID   int64
	Country  string
	FromNet  string // network key of the slower service
	ToNet    string
	FromDown unit.Bitrate
	ToDown   unit.Bitrate
	Before   UsageSummary
	After    UsageSummary
}

// Dataset bundles everything one world generation produces.
type Dataset struct {
	// Users is the row form of the users table, derived from the panel by
	// SetUsers; treat it as read-only.
	Users    []User
	Switches []Switch
	// Plans is the retail-plan survey (all markets).
	Plans []market.Plan
	// Markets holds the per-country summaries (access price, upgrade cost),
	// keyed by ISO code.
	Markets map[string]market.MarketSummary

	// panel is the users table in columnar form, installed once by
	// SetUsers. A plain pointer, so Dataset stays copyable by value.
	panel *Panel
}

// SetUsers installs p as the dataset's users table and derives Users from
// it. Every constructor calls it exactly once — world build, and the
// loaders after their cross-row pass — before the dataset is shared; the
// panel is never rebuilt afterwards, and p must not change once
// installed.
func (d *Dataset) SetUsers(p *Panel) {
	d.panel = p
	d.Users = p.Users()
}

// Panel returns the users table in columnar form, as installed by
// SetUsers (nil before). Safe for concurrent readers.
func (d *Dataset) Panel() *Panel { return d.panel }

// Validate holds the dataset to the loaders' contract — every row passes
// its table's check, the users table the cross-row rules — and returns the
// first violation. Generation bugs should die here, not three experiments
// later.
func (d *Dataset) Validate() error {
	p := d.panel
	if len(d.Users) == 0 {
		return errNoUsers
	}
	if p == nil || p.Len() != len(d.Users) {
		return fmt.Errorf("dataset: %d users but no matching panel (build datasets with SetUsers)", len(d.Users))
	}
	for i := range d.Users {
		if err := CheckRow(&d.Users[i]); err != nil {
			return fmt.Errorf("dataset: user %d: %w", d.Users[i].ID, err)
		}
	}
	for i := range d.Switches {
		if err := CheckRow(&d.Switches[i]); err != nil {
			return fmt.Errorf("dataset: switch of user %d: %w", d.Switches[i].UserID, err)
		}
	}
	for i := range d.Plans {
		if err := CheckRow(&d.Plans[i]); err != nil {
			return fmt.Errorf("dataset: plan %d (%s): %w", i, d.Plans[i].Country, err)
		}
	}
	_, err := crossRowFaults(p, d.Markets, func(i int, _ RowFault, cause error) error {
		return fmt.Errorf("dataset: user %d: %w", p.ID[i], cause)
	})
	return err
}

// crossRowFaults applies the rules between users rows: an id appears once
// (the first occurrence stands), and a user's market has a summary. It
// calls fault for every violating row, duplicates first, and returns which
// rows violate a rule, unless fault's error stops the walk.
func crossRowFaults(p *Panel, markets map[string]market.MarketSummary, fault func(i int, class RowFault, cause error) error) ([]bool, error) {
	bad := make([]bool, p.Len())
	seen := make(map[int64]bool, p.Len())
	for i, id := range p.ID {
		if bad[i] = seen[id]; bad[i] {
			if err := fault(i, FaultDuplicate, fmt.Errorf("duplicate user id %d", id)); err != nil {
				return nil, err
			}
		}
		seen[id] = true
	}
	for i, c := range p.Country {
		country := p.Countries.Value(c)
		if _, ok := markets[country]; ok || bad[i] {
			continue
		}
		bad[i] = true
		if err := fault(i, FaultReference, fmt.Errorf("market %q has no plan survey", country)); err != nil {
			return nil, err
		}
	}
	return bad, nil
}
