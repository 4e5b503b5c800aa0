package experiments

import (
	"context"
	"fmt"
	"runtime"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/par"
	"github.com/nwca/broadband/internal/randx"
)

// Registry enumerates every reproduced table and figure in the paper's
// presentation order. The repro driver and the benchmark harness iterate it.
func Registry() []Entry {
	return []Entry{
		{ID: "Fig. 1", Title: "Broadband connection characteristics (CDFs)", Run: RunFig01},
		{ID: "Fig. 2", Title: "Demand vs. capacity by class", Run: RunFig02},
		{ID: "Fig. 3", Title: "FCC vs. Dasu US demand", Run: RunFig03},
		{ID: "Table 1", Title: "Within-user upgrade experiment", Run: RunTable01},
		{ID: "Fig. 4", Title: "Slow/fast network usage CDFs", Run: RunFig04},
		{ID: "Fig. 5", Title: "Upgrade demand change by initial tier", Run: RunFig05},
		{ID: "Table 2", Title: "Matched-pair capacity experiment", Run: RunTable02},
		{ID: "Fig. 6", Title: "Longitudinal demand by year", Run: RunFig06},
		{ID: "Table 3", Title: "Price-of-access experiment", Run: RunTable03},
		{ID: "Table 4", Title: "Case-study market summary", Run: RunTable04},
		{ID: "Fig. 7", Title: "Case-study capacity/utilization CDFs", Run: RunFig07},
		{ID: "Fig. 8", Title: "Utilization by tier and country", Run: RunFig08},
		{ID: "Fig. 9", Title: "Peak demand by tier and country", Run: RunFig09},
		{ID: "Fig. 10", Title: "Cost of increasing capacity (CDF)", Run: RunFig10},
		{ID: "Table 5", Title: "Regional upgrade-cost shares", Run: RunTable05},
		{ID: "Table 6", Title: "Upgrade-cost experiment", Run: RunTable06},
		{ID: "Table 7", Title: "Latency experiment", Run: RunTable07},
		{ID: "Fig. 11", Title: "India latency comparison", Run: RunFig11},
		{ID: "Table 8", Title: "Packet-loss experiment", Run: RunTable08},
		{ID: "Fig. 12", Title: "India loss comparison", Run: RunFig12},
	}
}

// Find returns the registry entry with the given ID.
func Find(id string) (Entry, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

// Lookup returns the registry entry with the given ID, or else the
// extension entry.
func Lookup(id string) (Entry, bool) {
	if e, ok := Find(id); ok {
		return e, true
	}
	for _, e := range Extensions() {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

// RunAt runs e against d at seed. Every entry draws from the seed's stream
// split by its own ID, so an artifact's result depends only on the dataset,
// the seed and its ID, never on which other artifacts run or in what order.
func RunAt(e Entry, d *dataset.Dataset, seed uint64) (Report, error) {
	return e.Run(d, randx.New(seed).Split(e.ID))
}

// RunEach is the one registry fan-out: it runs run(e) for every entry
// across runtime.GOMAXPROCS(0) goroutines and returns the results and
// errors by entry index. A failing entry does not stop the others, and the
// reported failure err is the lowest-indexed entry error, prefixed with
// that entry's ID — what a sequential loop would report. Once ctx is
// cancelled no new entry starts and those running finish; the slices are
// then cut to the contiguous prefix of entries that ran (an entry that
// never ran cannot appear, so nothing after a gap is returned), and err is
// ctx.Err() unless an entry in that prefix failed.
func RunEach[R any](ctx context.Context, entries []Entry, run func(Entry) (R, error)) (results []R, errs []error, err error) {
	results = make([]R, len(entries))
	errs = make([]error, len(entries))
	ran := make([]bool, len(entries))
	// The task never fails: entry errors are collected in errs so every
	// entry runs (ForNCtx would stop dispatch at the first one). Only
	// cancellation cuts the fan-out short.
	ctxErr := par.ForNCtx(ctx, runtime.GOMAXPROCS(0), len(entries), func(i int) error {
		results[i], errs[i] = run(entries[i])
		ran[i] = true
		return nil
	})
	n := 0
	for n < len(entries) && ran[n] {
		n++
	}
	results, errs = results[:n], errs[:n]
	for i, e := range errs {
		if e != nil {
			return results, errs, fmt.Errorf("%s: %w", entries[i].ID, e)
		}
	}
	return results, errs, ctxErr
}
