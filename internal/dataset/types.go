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
	"sync"
	"sync/atomic"

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
	Users    []User
	Switches []Switch
	// Plans is the retail-plan survey (all markets).
	Plans []market.Plan
	// Markets holds the per-country summaries (access price, upgrade cost),
	// keyed by ISO code.
	Markets map[string]market.MarketSummary

	// panel caches the columnar projection of Users. It is attached at
	// single-threaded construction points (world build, dataset load) via
	// Freeze; Panel falls back to building an uncached projection when the
	// cache is missing or its length no longer matches Users. A plain
	// pointer, not a sync primitive: Dataset must stay copyable by value,
	// and the concurrency contract is "freeze before fanning out readers".
	// Code that mutates Users in place must call ResetPanel.
	panel *Panel
}

// Freeze builds (or rebuilds) the cached columnar panel from Users and
// returns it. Call it after constructing or mutating a dataset, before
// concurrent readers start; it is not itself safe for concurrent use.
func (d *Dataset) Freeze() *Panel {
	if d.panel == nil || d.panel.Len() != len(d.Users) {
		d.panel = BuildPanel(d.Users)
	}
	return d.panel
}

// Panel returns the columnar projection of Users: the cached panel when
// fresh, otherwise a newly built uncached one. Safe for concurrent readers
// as long as nobody mutates the dataset underneath them.
//
// The uncached fallback is deduplicated per dataset: N callers racing on
// an unfrozen dataset share one build instead of each paying for a full
// projection (the duplication the serve fan-out exposed). The flight never
// writes the cache field — concurrent Panel calls must stay write-free so
// they cannot race Freeze's single-threaded contract — and the flight
// entry is dropped as soon as the build lands, so a later mutation can
// never be served a stale panel.
func (d *Dataset) Panel() *Panel {
	if d.panel != nil && d.panel.Len() == len(d.Users) {
		return d.panel
	}
	panelMu.Lock()
	if c, ok := panelCalls[d]; ok {
		c.refs++
		panelMu.Unlock()
		<-c.done
		return c.p
	}
	c := &panelCall{done: make(chan struct{})}
	panelCalls[d] = c
	panelMu.Unlock()

	if panelBuildBarrier != nil {
		panelBuildBarrier()
	}
	panelFallbackBuilds.Add(1)
	c.p = BuildPanel(d.Users)

	panelMu.Lock()
	delete(panelCalls, d)
	panelMu.Unlock()
	close(c.done)
	return c.p
}

// panelCalls deduplicates concurrent uncached Panel builds, keyed by
// dataset identity. The flight leader removes its entry before signalling
// done, so entries live only for the duration of one build and the map
// never pins finished datasets in memory.
var (
	panelMu    sync.Mutex
	panelCalls = make(map[*Dataset]*panelCall)
)

// panelCall is one in-progress fallback build. The leader closes done
// after publishing p; refs counts the callers that joined the flight
// (everyone but the leader).
type panelCall struct {
	done chan struct{}
	p    *Panel
	refs int
}

// panelFallbackBuilds counts uncached fallback builds — a test hook
// pinning the one-build-per-flight contract.
var panelFallbackBuilds atomic.Int64

// panelBuildBarrier, when non-nil, runs in the flight leader after its
// flight is registered and before the build starts. Test-only: it lets a
// test hold a build open until every racing caller has joined the flight,
// making the one-build assertion deterministic. Nil in production.
var panelBuildBarrier func()

// ResetPanel drops the cached panel; the next Freeze or Panel rebuilds it.
func (d *Dataset) ResetPanel() { d.panel = nil }

// AttachPanel installs a pre-built panel as the cache — used by world
// generation, which builds the columns first and materializes Users from
// them. A panel whose length does not match Users is ignored (Panel would
// treat it as stale anyway).
func (d *Dataset) AttachPanel(p *Panel) {
	if p != nil && p.Len() == len(d.Users) {
		d.panel = p
	}
}

// Validate performs schema-level sanity checks and returns the first
// violation found. Generation bugs should die here, not three experiments
// later.
func (d *Dataset) Validate() error {
	if len(d.Users) == 0 {
		return fmt.Errorf("dataset: no users")
	}
	seen := make(map[int64]bool, len(d.Users))
	for i := range d.Users {
		u := &d.Users[i]
		if seen[u.ID] {
			return fmt.Errorf("dataset: duplicate user id %d", u.ID)
		}
		seen[u.ID] = true
		if u.Country == "" {
			return fmt.Errorf("dataset: user %d has no country", u.ID)
		}
		if _, ok := d.Markets[u.Country]; !ok {
			return fmt.Errorf("dataset: user %d references unknown market %q", u.ID, u.Country)
		}
		if u.Capacity <= 0 || !u.Capacity.IsValid() {
			return fmt.Errorf("dataset: user %d has capacity %v", u.ID, u.Capacity)
		}
		if u.RTT <= 0 {
			return fmt.Errorf("dataset: user %d has RTT %v", u.ID, u.RTT)
		}
		if !u.Loss.IsValid() {
			return fmt.Errorf("dataset: user %d has loss %v", u.ID, u.Loss)
		}
		for _, r := range []unit.Bitrate{u.Usage.Mean, u.Usage.Peak, u.Usage.MeanNoBT, u.Usage.PeakNoBT} {
			if !r.IsValid() {
				return fmt.Errorf("dataset: user %d has invalid usage %v", u.ID, r)
			}
		}
	}
	for _, s := range d.Switches {
		if s.FromDown >= s.ToDown {
			return fmt.Errorf("dataset: switch of user %d is not an upgrade (%v → %v)", s.UserID, s.FromDown, s.ToDown)
		}
	}
	return nil
}
