package dataset

import (
	"fmt"
	"io"

	"github.com/nwca/broadband/internal/market"
)

// LoadDir reads a dataset previously written by SaveDir (users.csv,
// switches.csv, plans.csv — or their .gz variants written with
// SaveOptions.Gzip; a sharded users-*-of-*.csv panel written out-of-core
// loads the same way) and reconstructs the per-market summaries from the
// plan survey. Tables are consumed through the streaming readers, one
// record at a time, so transient memory stays constant per row. Country
// metadata (region, GDP per capita) is rejoined from the built-in market
// profiles; plans for countries without a profile are kept but contribute
// no market summary.
func LoadDir(dir string) (*Dataset, error) {
	d := &Dataset{}

	read := func(base string, fn func(io.Reader, string) error) error {
		rc, path, err := openTablePath(dir, base)
		if err != nil {
			return err
		}
		defer rc.Close()
		return fn(rc, path)
	}
	// Users come through UserStream, so a directory written out-of-core
	// (users-*-of-*.csv shards, DESIGN.md §8) loads with the same call as
	// a monolithic one.
	if err := func() error {
		us, err := StreamUsersDir(dir)
		if err != nil {
			return err
		}
		defer us.Close()
		var u User
		for {
			switch err := us.Read(&u); err {
			case nil:
				d.Users = append(d.Users, u)
			case io.EOF:
				return nil
			default:
				return err
			}
		}
	}(); err != nil {
		return nil, fmt.Errorf("dataset: loading users: %w", err)
	}
	if err := read("switches.csv", func(r io.Reader, path string) error {
		sr, err := NewSwitchReaderFile(r, path)
		if err != nil {
			return err
		}
		var s Switch
		for {
			switch err := sr.Read(&s); err {
			case nil:
				d.Switches = append(d.Switches, s)
			case io.EOF:
				return nil
			default:
				return err
			}
		}
	}); err != nil {
		return nil, fmt.Errorf("dataset: loading switches: %w", err)
	}
	if err := read("plans.csv", func(r io.Reader, path string) error {
		pr, err := NewPlanReaderFile(r, path)
		if err != nil {
			return err
		}
		var pl market.Plan
		for {
			switch err := pr.Read(&pl); err {
			case nil:
				d.Plans = append(d.Plans, pl)
			case io.EOF:
				return nil
			default:
				return err
			}
		}
	}); err != nil {
		return nil, fmt.Errorf("dataset: loading plans: %w", err)
	}

	d.Markets = summarizeMarkets(d.Plans)
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: loaded data invalid: %w", err)
	}
	d.Freeze()
	return d, nil
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
