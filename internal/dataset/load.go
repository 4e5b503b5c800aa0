package dataset

import (
	"errors"
	"fmt"
	"io"
	"slices"
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
// The load is strict: its first fault (row, domain, duplicate or
// reference) is the error, naming the table, file and row.
func LoadDir(dir string) (*Dataset, error) {
	return loadDir(dir, strictQuarantine)
}

// EachUser streams the user table under dir — users.csv(.gz), else the
// complete shard set — through fn one row at a time in file order, with
// one file open and one record resident, so a one-pass consumer (bbstats)
// runs over worlds larger than RAM. The load is strict: the first row that
// fails to parse or the users check is the error. The first error fn
// returns also stops the walk, wrapped with the file and 1-based row it
// rejected. fn must not retain u: the record is reused.
func EachUser(dir string, fn func(u *User) error) error {
	return loadUsers(dir, strictQuarantine, func(u *User, _ int, _ *Quarantine) error { return fn(u) })
}

// errNoUsers is the error of a dataset whose users table is empty.
var errNoUsers = errors.New("dataset: no users")

// loadDir is the one body of LoadDir and LoadDirRobust; gate opens the
// quarantine of each file read. After the tables, the market summaries are
// rebuilt from the surviving plan survey, and each cross-row fault is
// demoted against the file and row its user came from.
func loadDir(dir string, gate func(file string) *Quarantine) (*Dataset, error) {
	d := &Dataset{}
	p := NewPanel(0)
	var qs []*Quarantine // each user's file quarantine and row
	var rows []int
	if err := loadTables(dir, d, gate, func(u *User, row int, q *Quarantine) error {
		p.Append(u)
		qs, rows = append(qs, q), append(rows, row)
		return nil
	}); err != nil {
		return nil, err
	}
	d.Markets = summarizeMarkets(d.Plans)
	demoted, err := crossRowFaults(p, d.Markets, func(i int, class RowFault, cause error) error {
		if err := qs[i].demote(rows[i], class, cause); err != nil {
			return qs[i].fail("users", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if slices.Contains(demoted, true) {
		// Re-append the survivors so the dictionaries intern only them.
		kept := NewPanel(p.Len())
		var u User
		for i := range demoted {
			if !demoted[i] {
				p.UserAt(i, &u)
				kept.Append(&u)
			}
		}
		p = kept
	}
	if p.Len() == 0 {
		return nil, errNoUsers
	}
	d.SetUsers(p)
	return d, nil
}

// loadTables streams the user table under dir file by file
// (users.csv(.gz) or its shard set) into keepUser with each row and its
// file's quarantine, then the switch panel and the plan survey into d.
func loadTables(dir string, d *Dataset, gate func(file string) *Quarantine, keepUser func(u *User, row int, q *Quarantine) error) error {
	if err := loadUsers(dir, gate, keepUser); err != nil {
		return err
	}
	switches, _ := tablePath(dir, "switches.csv")
	if err := loadTable([]string{switches}, gate, func(s *Switch, _ int, _ *Quarantine) error {
		d.Switches = append(d.Switches, *s)
		return nil
	}); err != nil {
		return err
	}
	plans, _ := tablePath(dir, "plans.csv")
	return loadTable([]string{plans}, gate, func(pl *market.Plan, _ int, _ *Quarantine) error {
		d.Plans = append(d.Plans, *pl)
		return nil
	})
}

// loadUsers streams the user table under dir through keep.
func loadUsers(dir string, gate func(file string) *Quarantine, keep func(u *User, row int, q *Quarantine) error) error {
	files, err := userTableFiles(dir)
	if err != nil {
		return gate(dir).fail("users", err)
	}
	return loadTable(files, gate, keep)
}

// loadTable streams each file of one table through readRows.
func loadTable[T Row](files []string, gate func(file string) *Quarantine, keep func(v *T, row int, q *Quarantine) error) error {
	for _, path := range files {
		q := gate(path)
		err := func() error {
			rc, err := openPath(path)
			if err != nil {
				return err
			}
			defer rc.Close()
			return readRows(rc, path, q, func(v *T, row int) error { return keep(v, row, q) })
		}()
		if err != nil {
			return q.fail(tableOf[T]().name, err)
		}
	}
	return nil
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
// and row. Rows the Reader rejects go to q, which skips them or fails the
// read (strict, or over budget). A transport failure (truncation, gzip
// corruption, I/O) fails it with a terminal *RowError.
func readRows[T Row](r io.Reader, file string, q *Quarantine, keep func(v *T, row int) error) error {
	tr, err := NewReader[T](r, file)
	if err != nil {
		return err
	}
	var v T
	var re *RowError
	for {
		err := tr.Read(&v)
		switch {
		case err == nil:
			q.kept()
			if err := keep(&v, tr.row); err != nil {
				return fmt.Errorf("dataset: %s row %d: %w", file, tr.row, err)
			}
		case err == io.EOF:
			return q.finish()
		case errors.As(err, &re) && re.Class.recoverable():
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
