package dataset

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/nwca/broadband/internal/market"
)

// Quarantine-hardened ingestion. The strict loaders (LoadDir, ReadAll)
// abort on the first malformed row — the right contract for data this
// pipeline wrote itself. Real measurement panels are dirtier: host churn,
// counter resets, duplicated and missing samples, corrupted uploads. The
// robust loaders ingest such inputs by skipping bad rows and collecting a
// typed per-row diagnostic report (file, 1-based row, fault class, cause),
// gated by a configurable error budget beyond which loading fails with one
// summarizing *BudgetError. Nothing here panics, and nothing is dropped
// silently: every excluded row appears in the report.

// RowFault classifies why a row was quarantined or a load failed.
type RowFault int

const (
	// FaultSyntax is a structurally malformed CSV row: wrong field count,
	// broken quoting. The reader recovers and continues at the next row.
	FaultSyntax RowFault = iota
	// FaultParse is a field that failed numeric/boolean conversion.
	FaultParse
	// FaultDomain is a parsed row whose values are physically or temporally
	// impossible — negative rates (counter reset), absurd magnitudes
	// (counter wraparound), years outside the plausible window (clock
	// skew), NaN/Inf measurements.
	FaultDomain
	// FaultDuplicate is a row whose primary key was already seen; the first
	// occurrence is kept.
	FaultDuplicate
	// FaultReference is a row referencing a market that does not exist
	// after the plan survey was ingested (its summary could not be built).
	FaultReference
	// FaultTruncated is a stream that ends mid-record at the transport
	// level (gzip corruption, unexpected EOF). Terminal: the remainder of
	// the file is unreadable, so robust loading fails rather than return a
	// silently short table.
	FaultTruncated
	// FaultIO is any other transport read failure. Terminal.
	FaultIO
)

var rowFaultNames = [...]string{
	"syntax", "parse", "domain", "duplicate", "reference", "truncated", "io",
}

// String names the fault class the way diagnostics and reports render it.
func (f RowFault) String() string {
	if int(f) < len(rowFaultNames) {
		return rowFaultNames[f]
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// MarshalJSON renders the class as its name in machine-readable reports.
func (f RowFault) MarshalJSON() ([]byte, error) {
	return []byte(`"` + f.String() + `"`), nil
}

// RowError is the typed load error every dataset reader reports: which
// file, which 1-based row (the header is row 1; 0 means the fault is not
// row-addressable), what class of fault, and the underlying cause.
type RowError struct {
	File  string
	Row   int
	Class RowFault
	Err   error
}

// Error renders "dataset: FILE row N [class]: cause".
func (e *RowError) Error() string {
	if e.Row > 0 {
		return fmt.Sprintf("dataset: %s row %d [%s]: %v", e.File, e.Row, e.Class, e.Err)
	}
	return fmt.Sprintf("dataset: %s [%s]: %v", e.File, e.Class, e.Err)
}

// Unwrap exposes the cause to errors.Is/As chains.
func (e *RowError) Unwrap() error { return e.Err }

// recoverable reports whether the reader can continue past this fault.
func (f RowFault) recoverable() bool {
	switch f {
	case FaultSyntax, FaultParse, FaultDomain, FaultDuplicate, FaultReference:
		return true
	}
	return false
}

// RowDiag is one quarantined row in the report.
type RowDiag struct {
	File  string   `json:"file"`
	Row   int      `json:"row"`
	Class RowFault `json:"class"`
	Cause string   `json:"cause"`
}

func (d RowDiag) String() string {
	return fmt.Sprintf("%s row %d [%s]: %s", d.File, d.Row, d.Class, d.Cause)
}

// QuarantineReport aggregates every quarantined row of a robust load.
type QuarantineReport struct {
	// RowsRead counts the data rows offered across all tables (kept +
	// quarantined); RowsKept the rows that survived.
	RowsRead int `json:"rows_read"`
	RowsKept int `json:"rows_kept"`
	// Diags lists every quarantined row in file order.
	Diags []RowDiag `json:"diags,omitempty"`
}

// Counts tallies the quarantined rows per fault class.
func (r *QuarantineReport) Counts() map[RowFault]int {
	out := make(map[RowFault]int)
	for _, d := range r.Diags {
		out[d.Class]++
	}
	return out
}

// countsSummary renders "3 parse, 2 domain" with classes in enum order.
func countsSummary(counts map[RowFault]int) string {
	classes := make([]RowFault, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	parts := make([]string, 0, len(classes))
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%d %s", counts[c], c))
	}
	return strings.Join(parts, ", ")
}

// Render formats the report for humans: the aggregate line, the per-class
// tally, and up to maxDiags individual rows.
func (r *QuarantineReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "quarantine: kept %d of %d rows", r.RowsKept, r.RowsRead)
	if len(r.Diags) == 0 {
		b.WriteString(", no rows quarantined\n")
		return b.String()
	}
	fmt.Fprintf(&b, ", quarantined %d (%s)\n", len(r.Diags), countsSummary(r.Counts()))
	const maxDiags = 20
	for i, d := range r.Diags {
		if i == maxDiags {
			fmt.Fprintf(&b, "  ... and %d more\n", len(r.Diags)-maxDiags)
			break
		}
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// QuarantineOptions configures the error budget of a robust load.
type QuarantineOptions struct {
	// MaxBadFrac is the per-file error budget: the maximum fraction of
	// data rows that may be quarantined before the load fails with a
	// *BudgetError. Zero or negative selects DefaultMaxBadFrac; a value
	// >= 1 disables the fractional budget.
	MaxBadFrac float64
}

// DefaultMaxBadFrac is the error budget applied when none is configured:
// 5% bad rows per file, roughly the dirt level the paper's source panels
// carried after transport but before cleaning.
const DefaultMaxBadFrac = 0.05

// maxBadFrac resolves the configured fractional budget.
func (o QuarantineOptions) maxBadFrac() float64 {
	if o.MaxBadFrac <= 0 {
		return DefaultMaxBadFrac
	}
	return o.MaxBadFrac
}

// BudgetError reports an exceeded error budget: the single summarizing
// error a robust load returns instead of a diagnostic per row.
type BudgetError struct {
	File string
	// Bad and Read count quarantined and offered data rows for File.
	Bad, Read int
	// Budget is the fractional budget in force.
	Budget float64
	// Counts tallies the file's quarantined rows per fault class.
	Counts map[RowFault]int
}

// Error renders the summary, e.g. "dataset: users.csv: error budget
// exceeded: 213 of 950 rows quarantined (budget 5.0%): 120 parse, 93 domain".
func (e *BudgetError) Error() string {
	return fmt.Sprintf("dataset: %s: error budget exceeded: %d of %d rows quarantined (budget %.1f%%): %s",
		e.File, e.Bad, e.Read, e.Budget*100, countsSummary(e.Counts))
}

// Quarantine tracks one file's row budget and routes diagnostics into the
// shared report. LoadDirRobust creates one per file with NewQuarantine.
type Quarantine struct {
	file      string
	opts      QuarantineOptions
	rep       *QuarantineReport
	read, bad int
}

// NewQuarantine returns the per-file quarantine gate writing into rep.
func NewQuarantine(file string, opts QuarantineOptions, rep *QuarantineReport) *Quarantine {
	return &Quarantine{file: file, opts: opts, rep: rep}
}

// budgetFloor is the minimum number of offered rows before the fractional
// budget is enforced incrementally, so tiny files are not failed by their
// first bad row; end of file enforces it whatever the count.
const budgetFloor = 200

// budgetErr builds the summarizing error for this file.
func (q *Quarantine) budgetErr() *BudgetError {
	counts := make(map[RowFault]int)
	for _, d := range q.rep.Diags {
		if d.File == q.file {
			counts[d.Class]++
		}
	}
	return &BudgetError{File: q.file, Bad: q.bad, Read: q.read, Budget: q.opts.maxBadFrac(), Counts: counts}
}

// overBudget reports whether the file's quarantined rows exceed the
// fractional budget. The budget applies once at least minRead rows were
// offered, so tiny prefixes of a file being read are not failed by their
// first bad row.
func (q *Quarantine) overBudget(minRead int) bool {
	frac := q.opts.maxBadFrac()
	return frac < 1 && q.read > 0 && q.read >= minRead && float64(q.bad) > frac*float64(q.read)
}

// note records one quarantined row and enforces the incremental budget.
func (q *Quarantine) note(row int, class RowFault, cause error) error {
	q.read++
	q.bad++
	q.rep.RowsRead++
	q.rep.Diags = append(q.rep.Diags, RowDiag{File: q.file, Row: row, Class: class, Cause: cause.Error()})
	if q.overBudget(budgetFloor) {
		return q.budgetErr()
	}
	return nil
}

// kept records one accepted row.
func (q *Quarantine) kept() {
	q.read++
	q.rep.RowsRead++
	q.rep.RowsKept++
}

// demote retracts a previously kept row (post-pass faults: duplicate keys,
// orphaned market references) and re-enforces the budget. The file has
// been read in full by then, so the fractional budget applies as it does
// at end of file.
func (q *Quarantine) demote(row int, class RowFault, cause error) error {
	q.bad++
	q.rep.RowsKept--
	q.rep.Diags = append(q.rep.Diags, RowDiag{File: q.file, Row: row, Class: class, Cause: cause.Error()})
	if q.overBudget(0) {
		return q.budgetErr()
	}
	return nil
}

// finish enforces the budget at end of file.
func (q *Quarantine) finish() error {
	if q.overBudget(0) {
		return q.budgetErr()
	}
	return nil
}

// Domain bounds. Values outside them are physically or temporally
// impossible for residential broadband in the study's era and mark counter
// resets (negative rates), wraparounds (absurd magnitudes), and clock skew
// (years outside the panel window) — the classic dirty-panel pathologies.
const (
	maxPlausibleRate = 100e9 // 100 Gbps, far above any 2011–2014 retail tier
	minPlausibleYear = 1995
	maxPlausibleYear = 2035
	maxPlausibleRTT  = 60.0 // seconds
	maxPlausibleUSD  = 1e6  // monthly price
)

// badRate reports why a bps value is implausible ("" = fine).
func badRate(v float64, allowZero bool) string {
	switch {
	case math.IsNaN(v):
		return "is NaN"
	case math.IsInf(v, 0):
		return "is infinite"
	case v < 0:
		return "is negative (counter reset)"
	case !allowZero && v == 0:
		return "is zero"
	case v > maxPlausibleRate:
		return "exceeds 100 Gbps (counter wraparound)"
	}
	return ""
}

// badMoney reports why a USD value is implausible ("" = fine).
func badMoney(v float64) string {
	switch {
	case math.IsNaN(v):
		return "is NaN"
	case math.IsInf(v, 0):
		return "is infinite"
	case v < 0:
		return "is negative"
	case v > maxPlausibleUSD:
		return "is implausibly large"
	}
	return ""
}

// checkUserDomain validates a parsed user row against the physical domain.
func checkUserDomain(u *User) error {
	if u.ID <= 0 {
		return fmt.Errorf("id %d is not positive", u.ID)
	}
	if u.Country == "" {
		return errors.New("country is empty")
	}
	if u.Year < minPlausibleYear || u.Year > maxPlausibleYear {
		return fmt.Errorf("year %d outside [%d, %d] (clock skew)", u.Year, minPlausibleYear, maxPlausibleYear)
	}
	if why := badRate(float64(u.Capacity), false); why != "" {
		return fmt.Errorf("capacity %s", why)
	}
	if why := badRate(float64(u.UpCapacity), true); why != "" {
		return fmt.Errorf("up capacity %s", why)
	}
	for _, c := range []struct {
		name string
		v    float64
	}{{"rtt", u.RTT}, {"web rtt", u.WebRTT}} {
		if math.IsNaN(c.v) || c.v < 0 || c.v > maxPlausibleRTT {
			return fmt.Errorf("%s %v outside [0, %gs]", c.name, c.v, maxPlausibleRTT)
		}
	}
	if u.RTT == 0 {
		return errors.New("rtt is zero")
	}
	if l := float64(u.Loss); math.IsNaN(l) || l < 0 || l > 1 {
		return fmt.Errorf("loss %v outside [0, 1]", l)
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"mean usage", float64(u.Usage.Mean)}, {"peak usage", float64(u.Usage.Peak)},
		{"mean usage (no BT)", float64(u.Usage.MeanNoBT)}, {"peak usage (no BT)", float64(u.Usage.PeakNoBT)},
		{"plan downstream", float64(u.PlanDown)}, {"plan upstream", float64(u.PlanUp)},
	} {
		if why := badRate(c.v, true); why != "" {
			return fmt.Errorf("%s %s", c.name, why)
		}
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"plan price", float64(u.PlanPrice)}, {"access price", float64(u.AccessPrice)},
		{"upgrade cost", float64(u.UpgradeCost)},
	} {
		if why := badMoney(c.v); why != "" {
			return fmt.Errorf("%s %s", c.name, why)
		}
	}
	if u.PlanCap < 0 {
		return errors.New("plan cap is negative")
	}
	return nil
}

// checkSwitchDomain validates a parsed switch row.
func checkSwitchDomain(s *Switch) error {
	if s.UserID <= 0 {
		return fmt.Errorf("user id %d is not positive", s.UserID)
	}
	if s.Country == "" {
		return errors.New("country is empty")
	}
	for _, c := range []struct {
		name string
		v    float64
	}{{"from capacity", float64(s.FromDown)}, {"to capacity", float64(s.ToDown)}} {
		if why := badRate(c.v, false); why != "" {
			return fmt.Errorf("%s %s", c.name, why)
		}
	}
	if s.FromDown >= s.ToDown {
		return fmt.Errorf("not an upgrade: %v -> %v", s.FromDown, s.ToDown)
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"before mean", float64(s.Before.Mean)}, {"before peak", float64(s.Before.Peak)},
		{"before mean (no BT)", float64(s.Before.MeanNoBT)}, {"before peak (no BT)", float64(s.Before.PeakNoBT)},
		{"after mean", float64(s.After.Mean)}, {"after peak", float64(s.After.Peak)},
		{"after mean (no BT)", float64(s.After.MeanNoBT)}, {"after peak (no BT)", float64(s.After.PeakNoBT)},
	} {
		if why := badRate(c.v, true); why != "" {
			return fmt.Errorf("%s %s", c.name, why)
		}
	}
	return nil
}

// checkPlanDomain validates a parsed plan-survey row.
func checkPlanDomain(p *market.Plan) error {
	if p.Country == "" {
		return errors.New("country is empty")
	}
	if why := badRate(float64(p.Down), false); why != "" {
		return fmt.Errorf("downstream %s", why)
	}
	if why := badRate(float64(p.Up), true); why != "" {
		return fmt.Errorf("upstream %s", why)
	}
	if why := badMoney(float64(p.PriceUSD)); why != "" {
		return fmt.Errorf("price %s", why)
	}
	if math.IsNaN(p.PriceLocal) || math.IsInf(p.PriceLocal, 0) || p.PriceLocal < 0 {
		return errors.New("local price is not a plausible amount")
	}
	if p.Cap < 0 {
		return errors.New("cap is negative")
	}
	return nil
}

// LoadDirRobust reads a dataset directory the way LoadDir does, but under
// the quarantine contract: malformed, out-of-domain, duplicated and
// orphaned rows are skipped and reported instead of aborting the load, up
// to the configured error budget, which applies to each file on its own
// (each user shard included). The report is returned even when the load
// fails, so callers can see how far ingestion got. Terminal failures
// (transport errors, exhausted budgets) are typed: *RowError, *BudgetError.
func LoadDirRobust(dir string, opts QuarantineOptions) (*Dataset, *QuarantineReport, error) {
	rep := &QuarantineReport{}
	d := &Dataset{}

	// Users go straight into the panel, as in LoadDir; each keeps its file
	// gate and row for the post-pass demotions.
	type origin struct {
		q   *Quarantine
		row int
	}
	p := NewPanel(0)
	var origins []origin
	if err := loadTables(dir, d, rep, opts, func(u *User, row int, q *Quarantine) error {
		p.Append(u)
		origins = append(origins, origin{q, row})
		return nil
	}); err != nil {
		return nil, rep, err
	}

	// Rebuild per-market summaries from the surviving survey rows, exactly
	// as the strict loader does.
	d.Markets = summarizeMarkets(d.Plans)

	// Duplicated user IDs keep their first occurrence (duplicate-sample
	// pathology); users whose market lost its summary (quarantined survey
	// rows) are orphans. Both are demoted rather than failing validation:
	// all duplicates first, then the orphans, in file order.
	demoted := make([]bool, p.Len())
	n := 0
	seen := make(map[int64]bool, p.Len())
	for i, id := range p.ID {
		if seen[id] {
			demoted[i], n = true, n+1
			if err := origins[i].q.demote(origins[i].row, FaultDuplicate, fmt.Errorf("duplicate user id %d", id)); err != nil {
				return nil, rep, err
			}
			continue
		}
		seen[id] = true
	}
	for i, c := range p.Country {
		country := p.Countries.Value(c)
		if _, ok := d.Markets[country]; ok || demoted[i] {
			continue
		}
		demoted[i], n = true, n+1
		if err := origins[i].q.demote(origins[i].row, FaultReference, fmt.Errorf("market %q has no plan survey", country)); err != nil {
			return nil, rep, err
		}
	}
	if n > 0 {
		// Re-append the survivors so the dictionaries intern only them.
		kept := NewPanel(p.Len() - n)
		var u User
		for i := range demoted {
			if !demoted[i] {
				p.UserAt(i, &u)
				kept.Append(&u)
			}
		}
		p = kept
	}
	d.SetUsers(p)

	// The surviving dataset must satisfy the strict invariants — anything
	// else would mean the quarantine let corruption through.
	if err := d.Validate(); err != nil {
		return nil, rep, fmt.Errorf("dataset: robust load left invalid data: %w", err)
	}
	return d, rep, nil
}
