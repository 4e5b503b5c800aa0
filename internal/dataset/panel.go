package dataset

import (
	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/traffic"
	"github.com/nwca/broadband/internal/unit"
)

// Dict interns strings as dense small-int codes in first-appearance order.
// Interning is deterministic: appending the same rows in the same order
// always yields the same code assignment, which keeps panel-based results
// byte-identical across runs and worker counts.
//
// Dict is not safe for concurrent mutation; a fully built Dict is safe for
// concurrent reads.
type Dict struct {
	codes map[string]uint32
	vals  []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{codes: make(map[string]uint32)} }

// Intern returns the code of s, assigning the next free code on first
// appearance.
func (d *Dict) Intern(s string) uint32 {
	if c, ok := d.codes[s]; ok {
		return c
	}
	c := uint32(len(d.vals))
	d.codes[s] = c
	d.vals = append(d.vals, s)
	return c
}

// Code returns the code of s, if interned.
func (d *Dict) Code(s string) (uint32, bool) {
	c, ok := d.codes[s]
	return c, ok
}

// Value returns the string behind a code.
func (d *Dict) Value(c uint32) string { return d.vals[c] }

// Len returns the number of distinct interned strings.
func (d *Dict) Len() int { return len(d.vals) }

// Panel is the struct-of-arrays form of the user table: one slice per
// column, string identities dictionary-encoded. The experiments' inner
// loops aggregate a handful of float columns over large populations; the
// columnar layout walks 8 bytes per element instead of dragging the whole
// ~200-byte User row through the cache, and selection becomes an index
// vector instead of a pointer list.
//
// Every analysis — the aggregations, the matcher and the experiments —
// reads the panel through index vectors (View) and columns (Column). Rows
// materialize back via UserAt/Users only at the serialization boundary
// (CSV I/O). The round-trip User → Panel
// → User is lossless. Rates, prices and loss fractions are stored as raw
// float64 (bps, USD, fractions) so stats aggregations consume columns
// directly; the unit newtypes are reapplied on materialization.
//
// A built Panel is immutable by convention and safe for concurrent reads.
// Row indices are int32: an in-core panel of ≥2^31 rows is far past the
// point where the out-of-core shard pipeline takes over.
type Panel struct {
	// Dictionaries for the three string columns.
	Countries, ISPs, Networks *Dict

	ID      []int64
	Country []uint32 // code into Countries
	Vantage []Vantage
	Year    []int

	ISP     []uint32 // code into ISPs
	Network []uint32 // code into Networks

	PlanDown  []float64 // bps
	PlanUp    []float64 // bps
	PlanPrice []float64 // USD
	PlanTech  []market.Technology
	PlanCap   []int64 // bytes; 0 = unlimited

	Capacity   []float64 // bps
	UpCapacity []float64 // bps
	RTT        []float64 // seconds
	WebRTT     []float64 // seconds
	Loss       []float64 // fraction

	UsageMean     []float64 // bps
	UsagePeak     []float64 // bps
	UsageMeanNoBT []float64 // bps
	UsagePeakNoBT []float64 // bps
	UsesBT        []bool
	Archetype     []traffic.Archetype

	AccessPrice []float64 // USD
	UpgradeCost []float64 // USD per Mbps
}

// NewPanel returns an empty panel with capacity for n rows.
func NewPanel(n int) *Panel {
	return &Panel{
		Countries: NewDict(),
		ISPs:      NewDict(),
		Networks:  NewDict(),

		ID:      make([]int64, 0, n),
		Country: make([]uint32, 0, n),
		Vantage: make([]Vantage, 0, n),
		Year:    make([]int, 0, n),

		ISP:     make([]uint32, 0, n),
		Network: make([]uint32, 0, n),

		PlanDown:  make([]float64, 0, n),
		PlanUp:    make([]float64, 0, n),
		PlanPrice: make([]float64, 0, n),
		PlanTech:  make([]market.Technology, 0, n),
		PlanCap:   make([]int64, 0, n),

		Capacity:   make([]float64, 0, n),
		UpCapacity: make([]float64, 0, n),
		RTT:        make([]float64, 0, n),
		WebRTT:     make([]float64, 0, n),
		Loss:       make([]float64, 0, n),

		UsageMean:     make([]float64, 0, n),
		UsagePeak:     make([]float64, 0, n),
		UsageMeanNoBT: make([]float64, 0, n),
		UsagePeakNoBT: make([]float64, 0, n),
		UsesBT:        make([]bool, 0, n),
		Archetype:     make([]traffic.Archetype, 0, n),

		AccessPrice: make([]float64, 0, n),
		UpgradeCost: make([]float64, 0, n),
	}
}

// BuildPanel converts a row-form user table to columns.
func BuildPanel(users []User) *Panel {
	p := NewPanel(len(users))
	for i := range users {
		p.Append(&users[i])
	}
	return p
}

// Append adds one user row to the columns. Not safe for concurrent use.
func (p *Panel) Append(u *User) {
	p.ID = append(p.ID, u.ID)
	p.Country = append(p.Country, p.Countries.Intern(u.Country))
	p.Vantage = append(p.Vantage, u.Vantage)
	p.Year = append(p.Year, u.Year)

	p.ISP = append(p.ISP, p.ISPs.Intern(u.ISP))
	p.Network = append(p.Network, p.Networks.Intern(u.NetworkKey))

	p.PlanDown = append(p.PlanDown, float64(u.PlanDown))
	p.PlanUp = append(p.PlanUp, float64(u.PlanUp))
	p.PlanPrice = append(p.PlanPrice, float64(u.PlanPrice))
	p.PlanTech = append(p.PlanTech, u.PlanTech)
	p.PlanCap = append(p.PlanCap, int64(u.PlanCap))

	p.Capacity = append(p.Capacity, float64(u.Capacity))
	p.UpCapacity = append(p.UpCapacity, float64(u.UpCapacity))
	p.RTT = append(p.RTT, u.RTT)
	p.WebRTT = append(p.WebRTT, u.WebRTT)
	p.Loss = append(p.Loss, float64(u.Loss))

	p.UsageMean = append(p.UsageMean, float64(u.Usage.Mean))
	p.UsagePeak = append(p.UsagePeak, float64(u.Usage.Peak))
	p.UsageMeanNoBT = append(p.UsageMeanNoBT, float64(u.Usage.MeanNoBT))
	p.UsagePeakNoBT = append(p.UsagePeakNoBT, float64(u.Usage.PeakNoBT))
	p.UsesBT = append(p.UsesBT, u.UsesBT)
	p.Archetype = append(p.Archetype, u.Archetype)

	p.AccessPrice = append(p.AccessPrice, float64(u.AccessPrice))
	p.UpgradeCost = append(p.UpgradeCost, float64(u.UpgradeCost))
}

// Len returns the row count.
func (p *Panel) Len() int { return len(p.ID) }

// UserAt materializes row i into u.
func (p *Panel) UserAt(i int, u *User) {
	*u = User{
		ID:      p.ID[i],
		Country: p.Countries.Value(p.Country[i]),
		Vantage: p.Vantage[i],
		Year:    p.Year[i],

		ISP:        p.ISPs.Value(p.ISP[i]),
		NetworkKey: p.Networks.Value(p.Network[i]),

		PlanDown:  unit.Bitrate(p.PlanDown[i]),
		PlanUp:    unit.Bitrate(p.PlanUp[i]),
		PlanPrice: unit.USD(p.PlanPrice[i]),
		PlanTech:  p.PlanTech[i],
		PlanCap:   unit.ByteSize(p.PlanCap[i]),

		Capacity:   unit.Bitrate(p.Capacity[i]),
		UpCapacity: unit.Bitrate(p.UpCapacity[i]),
		RTT:        p.RTT[i],
		WebRTT:     p.WebRTT[i],
		Loss:       unit.LossRate(p.Loss[i]),

		Usage: UsageSummary{
			Mean:     unit.Bitrate(p.UsageMean[i]),
			Peak:     unit.Bitrate(p.UsagePeak[i]),
			MeanNoBT: unit.Bitrate(p.UsageMeanNoBT[i]),
			PeakNoBT: unit.Bitrate(p.UsagePeakNoBT[i]),
		},
		UsesBT:    p.UsesBT[i],
		Archetype: p.Archetype[i],

		AccessPrice: unit.USD(p.AccessPrice[i]),
		UpgradeCost: unit.PerMbps(p.UpgradeCost[i]),
	}
}

// Users materializes the whole panel back to row form.
func (p *Panel) Users() []User {
	out := make([]User, p.Len())
	for i := range out {
		p.UserAt(i, &out[i])
	}
	return out
}

// Column selects one float64 column of a panel: the per-user figure an
// experiment compares (its outcome) or matches on (a confounder). Values
// are read as col(p)[i] for row i.
type Column func(*Panel) []float64

// Named demand columns used throughout the experiments. All are in bits
// per second.
var (
	MeanUsage     Column = func(p *Panel) []float64 { return p.UsageMean }
	PeakUsage     Column = func(p *Panel) []float64 { return p.UsagePeak }
	MeanUsageNoBT Column = func(p *Panel) []float64 { return p.UsageMeanNoBT }
	PeakUsageNoBT Column = func(p *Panel) []float64 { return p.UsagePeakNoBT }
)

// PeakUtilization returns row i's peak (no-BT) usage as a fraction of
// measured capacity — the columnar twin of (*User).PeakUtilization.
func (p *Panel) PeakUtilization(i int) float64 {
	if p.Capacity[i] <= 0 {
		return 0
	}
	frac := p.UsagePeakNoBT[i] / p.Capacity[i]
	if frac > 1 {
		frac = 1
	}
	return frac
}

// ColPred is a columnar row predicate. It is a two-stage closure: binding
// to a panel happens once per selection (resolving dictionary codes, so
// string predicates become integer compares in the row loop), and the
// returned test is evaluated per row index.
type ColPred func(p *Panel) func(i int) bool

// ColCountry keeps rows in the given country.
func ColCountry(code string) ColPred {
	return func(p *Panel) func(int) bool {
		c, ok := p.Countries.Code(code)
		if !ok {
			return func(int) bool { return false }
		}
		return func(i int) bool { return p.Country[i] == c }
	}
}

// ColNotCountry keeps rows outside the given country.
func ColNotCountry(code string) ColPred {
	return func(p *Panel) func(int) bool {
		c, ok := p.Countries.Code(code)
		if !ok {
			return func(int) bool { return true }
		}
		return func(i int) bool { return p.Country[i] != c }
	}
}

// ColVantage keeps rows observed from the given platform.
func ColVantage(v Vantage) ColPred {
	return func(p *Panel) func(int) bool {
		return func(i int) bool { return p.Vantage[i] == v }
	}
}

// ColYear keeps rows observed in the given year.
func ColYear(y int) ColPred {
	return func(p *Panel) func(int) bool {
		return func(i int) bool { return p.Year[i] == y }
	}
}

// ColTier keeps rows whose measured capacity falls in the given tier.
func ColTier(t stats.Tier) ColPred {
	return func(p *Panel) func(int) bool {
		return func(i int) bool { return stats.TierOf(unit.Bitrate(p.Capacity[i])) == t }
	}
}

// ColClass keeps rows whose measured capacity falls in the given
// 100 kbps × 2^k capacity class.
func ColClass(c stats.CapacityClass) ColPred {
	return func(p *Panel) func(int) bool {
		return func(i int) bool { return c.Contains(unit.Bitrate(p.Capacity[i])) }
	}
}

// ColCapacityBetween keeps rows with measured capacity in (lo, hi].
func ColCapacityBetween(lo, hi unit.Bitrate) ColPred {
	return func(p *Panel) func(int) bool {
		flo, fhi := float64(lo), float64(hi)
		return func(i int) bool { return p.Capacity[i] > flo && p.Capacity[i] <= fhi }
	}
}

// bindPreds resolves a predicate stack against one panel.
func bindPreds(p *Panel, preds []ColPred) []func(int) bool {
	tests := make([]func(int) bool, len(preds))
	for k, pred := range preds {
		tests[k] = pred(p)
	}
	return tests
}

func evalPreds(tests []func(int) bool, i int) bool {
	for _, t := range tests {
		if !t(i) {
			return false
		}
	}
	return true
}

// View is an index-vector selection over a panel: the rows at Idx, in
// order. Views chain cheaply (each Where walks only the surviving
// indices), copy no rows, and iterate in ascending panel order, so
// aggregations over a view are bit-identical to a row-by-row scan of the
// same users.
type View struct {
	P   *Panel
	Idx []int32
}

// All returns the view of every row.
func (p *Panel) All() View {
	idx := make([]int32, p.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	return View{P: p, Idx: idx}
}

// Where selects the rows satisfying every predicate, in ascending order.
func (p *Panel) Where(preds ...ColPred) View {
	tests := bindPreds(p, preds)
	var idx []int32
	for i, n := 0, p.Len(); i < n; i++ {
		if evalPreds(tests, i) {
			idx = append(idx, int32(i))
		}
	}
	return View{P: p, Idx: idx}
}

// Where narrows the view to the rows satisfying every predicate.
func (v View) Where(preds ...ColPred) View {
	tests := bindPreds(v.P, preds)
	var idx []int32
	for _, i := range v.Idx {
		if evalPreds(tests, int(i)) {
			idx = append(idx, i)
		}
	}
	return View{P: v.P, Idx: idx}
}

// Len returns the number of selected rows.
func (v View) Len() int { return len(v.Idx) }

// Gather extracts one column restricted to the view, in view order. col
// must be a column of the view's panel (or any slice indexed like it).
func (v View) Gather(col []float64) []float64 {
	out := make([]float64, len(v.Idx))
	for k, i := range v.Idx {
		out[k] = col[i]
	}
	return out
}
