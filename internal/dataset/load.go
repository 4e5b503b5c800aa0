package dataset

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"github.com/nwca/broadband/internal/market"
)

// LoadDir reads a dataset previously written by SaveDir (users.csv,
// switches.csv, plans.csv — or their .gz variants written with
// SaveOptions.Gzip; a sharded users-*-of-*.csv panel written out-of-core
// loads the same way) and reconstructs the per-market summaries from the
// plan survey. Tables are consumed through the streaming readers, one
// record at a time, and users go straight into the columnar panel. Country
// metadata (region, GDP per capita) is rejoined from the built-in market
// profiles; plans for countries without a profile are kept but contribute
// no market summary.
func LoadDir(dir string) (*Dataset, error) {
	d := &Dataset{}
	p := NewPanel(0)
	if err := loadTables(dir, d, nil, QuarantineOptions{}, func(u *User, _ int, _ *Quarantine) error {
		p.Append(u)
		return nil
	}); err != nil {
		return nil, err
	}
	d.Markets = summarizeMarkets(d.Plans)
	d.SetUsers(p)
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: loaded data invalid: %w", err)
	}
	return d, nil
}

// EachUser streams the user table under dir — users.csv(.gz), else the
// complete shard set — through fn one row at a time in file order, with
// one file open and one record resident, so a one-pass consumer (bbstats)
// runs over worlds larger than RAM. The load is strict. The first error fn
// returns stops the walk and comes back wrapped with the file and 1-based
// row it rejected. fn must not retain u: the record is reused.
func EachUser(dir string, fn func(u *User) error) error {
	return loadUsers(dir, nil, QuarantineOptions{}, func(u *User, _ int, _ *Quarantine) error { return fn(u) })
}

// loadTables is the table loop LoadDir and LoadDirRobust share: it streams
// the user table file by file (users.csv(.gz) or its shard set) into
// keepUser, then the switch panel and the plan survey into d. With rep nil
// the load is strict: the first faulty row fails it, and errors name the
// table being loaded. Otherwise every file gets its own Quarantine under
// opts writing into rep, and keepUser receives it with each user's row so
// post-passes can charge demotions to the file the row came from.
func loadTables(dir string, d *Dataset, rep *QuarantineReport, opts QuarantineOptions, keepUser func(u *User, row int, q *Quarantine) error) error {
	if err := loadUsers(dir, rep, opts, keepUser); err != nil {
		return err
	}
	switches, _ := tablePath(dir, "switches.csv")
	if err := loadTable([]string{switches}, rep, opts, func(s *Switch, _ int, _ *Quarantine) error {
		d.Switches = append(d.Switches, *s)
		return nil
	}); err != nil {
		return err
	}
	plans, _ := tablePath(dir, "plans.csv")
	return loadTable([]string{plans}, rep, opts, func(pl *market.Plan, _ int, _ *Quarantine) error {
		d.Plans = append(d.Plans, *pl)
		return nil
	})
}

// loadUsers streams the user table under dir through keep.
func loadUsers(dir string, rep *QuarantineReport, opts QuarantineOptions, keep func(u *User, row int, q *Quarantine) error) error {
	files, err := userTableFiles(dir)
	if err != nil {
		return loadErr(rep, "users", dir, err)
	}
	return loadTable(files, rep, opts, keep)
}

// loadTable streams each file of one table through readRows.
func loadTable[T Row](files []string, rep *QuarantineReport, opts QuarantineOptions, keep func(v *T, row int, q *Quarantine) error) error {
	for _, path := range files {
		var q *Quarantine
		if rep != nil {
			q = NewQuarantine(path, opts, rep)
		}
		err := func() error {
			rc, err := openPath(path)
			if err != nil {
				return err
			}
			defer rc.Close()
			return readRows(rc, path, q, func(v *T, row int) error { return keep(v, row, q) })
		}()
		if err != nil {
			return loadErr(rep, tableOf[T]().name, path, err)
		}
	}
	return nil
}

// loadErr shapes a table-load failure. A strict load (rep nil) names the
// table; a robust load keeps its typed errors and types any other failure
// (opening the file, finding the shard set) as a terminal FaultIO.
func loadErr(rep *QuarantineReport, table, file string, err error) error {
	if rep == nil {
		return &tableError{table: table, err: err}
	}
	var re *RowError
	var be *BudgetError
	if errors.As(err, &re) || errors.As(err, &be) {
		return err
	}
	return &RowError{File: file, Class: FaultIO, Err: err}
}

// tableError names the table a strict load failed on. Most causes —
// a row's *RowError, a caller's error wrapped with its file and row —
// already begin with the package name, which it does not repeat.
type tableError struct {
	table string
	err   error
}

func (e *tableError) Error() string {
	return "dataset: loading " + e.table + ": " + strings.TrimPrefix(e.err.Error(), "dataset: ")
}

func (e *tableError) Unwrap() error { return e.err }

// readRows streams one table file through keep, passing each row with its
// 1-based line; an error from keep stops the read, wrapped with the file
// and row. With q nil the first faulty row aborts the read (the
// strict contract). Otherwise rows that fail structurally, at parse time
// or the table's domain check are quarantined against q and skipped; the
// read fails with a *BudgetError once q's budget is exhausted and with a
// terminal *RowError when the transport itself fails (truncation, gzip
// corruption, I/O).
func readRows[T Row](r io.Reader, file string, q *Quarantine, keep func(v *T, row int) error) error {
	tr, err := NewReader[T](r, file)
	if err != nil {
		return err
	}
	var v T
	var re *RowError
	for {
		err := tr.Read(&v)
		if err == nil && q != nil {
			if derr := tr.t.check(&v); derr != nil {
				err = &RowError{File: file, Row: tr.row, Class: FaultDomain, Err: derr}
			}
		}
		switch {
		case err == nil:
			if q != nil {
				q.kept()
			}
			if err := keep(&v, tr.row); err != nil {
				return fmt.Errorf("dataset: %s row %d: %w", file, tr.row, err)
			}
		case err == io.EOF:
			if q != nil {
				return q.finish()
			}
			return nil
		case q != nil && errors.As(err, &re) && re.Class.recoverable():
			if qerr := q.note(re.Row, re.Class, re.Err); qerr != nil {
				return qerr
			}
		default:
			return err
		}
	}
}

// summarizeMarkets rebuilds the per-market summaries (access price,
// upgrade cost) from plan-survey rows. Country metadata is rejoined from
// the built-in market profiles; plans of countries without a profile form
// a bare catalog, and markets with no ≥1 Mbps plan carry no summary.
func summarizeMarkets(plans []market.Plan) map[string]market.MarketSummary {
	byCountry := make(map[string]*market.Catalog)
	for _, p := range plans {
		cat := byCountry[p.Country]
		if cat == nil {
			cat = &market.Catalog{}
			if prof, ok := market.FindProfile(p.Country); ok {
				cat.Country = prof.Country
			} else {
				cat.Country = market.Country{Code: p.Country, Name: p.Country}
			}
			byCountry[p.Country] = cat
		}
		cat.Plans = append(cat.Plans, p)
	}
	out := make(map[string]market.MarketSummary, len(byCountry))
	for code, cat := range byCountry {
		if sum, err := market.Summarize(*cat); err == nil {
			out[code] = sum
		}
	}
	return out
}
