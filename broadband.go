// Package broadband is the public API of the reproduction of "Need, Want,
// Can Afford – Broadband Markets and the Behavior of Users" (Bischof,
// Bustamante, Stanojevic — IMC 2014).
//
// The library has three layers, all re-exported here:
//
//   - World generation (BuildWorld): a parameterized synthetic world of
//     ~90 national broadband markets, subscriber plan choice ("need, want,
//     can afford"), access-network simulation and behavioral traffic
//     generation, producing the paper's three datasets — the end-host
//     panel, the US gateway panel, and the retail-plan survey.
//   - Causal inference (Experiment, Matcher, RunPaired): natural
//     experiments over observational data with nearest-neighbor caliper
//     matching, one-tailed binomial tests and the paper's practical-
//     significance rule. Populations are Views (row-index selections)
//     over the dataset's columnar Panel; outcomes and covariates are
//     Columns of it.
//   - Reproduction (Experiments, RunAll): one module per table and figure
//     of the paper's evaluation, each returning a typed result with a
//     textual rendering of the same rows/series.
//
// Quickstart:
//
//	world, err := broadband.BuildWorld(broadband.WorldConfig{Seed: 1, Users: 1500})
//	if err != nil { ... }
//	rep, err := broadband.Run("Table 1", &world.Data, 42)
//	if err != nil { ... }
//	fmt.Print(rep.Render())
package broadband

import (
	"context"
	"fmt"
	"io"
	"slices"

	"github.com/nwca/broadband/internal/core"
	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/experiments"
	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/synth"
	"github.com/nwca/broadband/internal/unit"
)

// World generation.
type (
	// WorldConfig parameterizes synthetic-world generation.
	WorldConfig = synth.Config
	// World is a generated world: datasets, plan catalogs and ground truth.
	World = synth.World
	// Dataset bundles the users, switches, plans and market summaries.
	Dataset = dataset.Dataset
	// User is one subscriber observation.
	User = dataset.User
	// Switch is one before/after service-change observation.
	Switch = dataset.Switch
	// UsageSummary is the mean/peak demand pair, with and without BitTorrent.
	UsageSummary = dataset.UsageSummary
	// Vantage distinguishes the end-host and gateway platforms.
	Vantage = dataset.Vantage
)

// Measurement vantages.
const (
	VantageDasu    = dataset.VantageDasu
	VantageGateway = dataset.VantageGateway
)

// Market model.
type (
	// MarketProfile parameterizes one national broadband market.
	MarketProfile = market.Profile
	// Country identifies a national market and its economy.
	Country = market.Country
	// Plan is one retail broadband offer.
	Plan = market.Plan
	// Catalog is a country's retail plan set.
	Catalog = market.Catalog
	// MarketSummary carries a market's access price and upgrade cost.
	MarketSummary = market.MarketSummary
	// Subscriber is the need/want/can-afford household of the choice model.
	Subscriber = market.Subscriber
)

// Causal-inference engine.
type (
	// Panel is the columnar users table (Dataset.Panel).
	Panel = dataset.Panel
	// View selects panel rows by index: an experiment population.
	View = dataset.View
	// Column selects one float64 panel column: an outcome or covariate.
	Column = dataset.Column
	// Experiment is a declarative natural experiment.
	Experiment = core.Experiment
	// Matcher performs nearest-neighbor caliper matching.
	Matcher = core.Matcher
	// Confounder is one matching covariate.
	Confounder = core.Confounder
	// ExperimentResult reports a natural experiment.
	ExperimentResult = core.Result
	// MatchedPair is one treated/control pair of panel row indices.
	MatchedPair = core.Pair
	// QED is the stratified quasi-experimental design (the alternative to
	// nearest-neighbor matching).
	QED = core.QED
	// QEDResult reports a quasi-experiment with stratification diagnostics.
	QEDResult = core.QEDResult
)

// Reproduction harness.
type (
	// Report is a reproduced table or figure.
	Report = experiments.Report
	// ReportEntry pairs a report identity with its runner.
	ReportEntry = experiments.Entry
)

// Units.
type (
	// Bitrate is a data rate in bits per second.
	Bitrate = unit.Bitrate
	// USD is purchasing-power-normalized money.
	USD = unit.USD
	// LossRate is a packet-loss fraction.
	LossRate = unit.LossRate
)

// Mbps constructs a Bitrate from megabits per second.
func Mbps(v float64) Bitrate { return unit.MbpsOf(v) }

// BuildWorld generates a synthetic world (all three datasets) from the
// configuration. Generation is deterministic in cfg.Seed.
func BuildWorld(cfg WorldConfig) (*World, error) { return synth.Build(cfg) }

// BuildWorldCtx is BuildWorld with cancellation: generation stops at the
// next internal work boundary once ctx is cancelled and returns ctx.Err()
// with no world. A run that completes is byte-identical to BuildWorld.
func BuildWorldCtx(ctx context.Context, cfg WorldConfig) (*World, error) {
	return synth.BuildCtx(ctx, cfg)
}

// Out-of-core world generation.
type (
	// ShardSpec describes the on-disk layout of a sharded world build.
	ShardSpec = synth.ShardSpec
	// ShardReport summarizes a sharded world build.
	ShardReport = synth.ShardReport
)

// BuildWorldSharded generates a world directly to disk as N user shard
// files plus switches.csv and plans.csv, streaming each user to its shard
// instead of materializing the panel — resident memory is bounded by the
// market frame and the switch-candidate pool, independent of the user
// count (DESIGN.md §8). Shard bytes are deterministic in (cfg.Seed, shard
// count): concatenating the shard bodies reproduces exactly the users.csv
// an in-core BuildWorld of the same config would save. LoadDataset and
// LoadDatasetRobust read the sharded directory transparently.
func BuildWorldSharded(ctx context.Context, cfg WorldConfig, spec ShardSpec) (*ShardReport, error) {
	return synth.BuildSharded(ctx, cfg, spec)
}

// LoadDataset reads a dataset previously written with Dataset.SaveDir or
// SaveDataset (users.csv, switches.csv, plans.csv — plain or .gz),
// rebuilding market summaries from the plan survey. Tables stream through
// the record-at-a-time readers, so load memory is the dataset itself, not
// a second parsed copy. It holds every row to the same contract as
// LoadDatasetRobust — its table's check, then the duplicate-id and
// orphan-market rules — but fails on the first faulty row with a
// *RowError naming its file and row instead of quarantining it.
func LoadDataset(dir string) (*Dataset, error) { return dataset.LoadDir(dir) }

// Quarantine-hardened ingestion: the robust loader skips malformed,
// out-of-domain, duplicated and orphaned rows instead of aborting, and
// reports every excluded row with its file, 1-based row number and fault
// class — up to a configurable error budget.
type (
	// QuarantineOptions configures the robust loader's error budget.
	QuarantineOptions = dataset.QuarantineOptions
	// QuarantineReport lists every quarantined row of a robust load.
	QuarantineReport = dataset.QuarantineReport
	// RowDiag is one quarantined row: file, row, fault class, cause.
	RowDiag = dataset.RowDiag
	// RowFault classifies why a row was quarantined.
	RowFault = dataset.RowFault
	// RowError is the typed load error carrying file, row and fault class.
	RowError = dataset.RowError
	// BudgetError is the single summarizing error of an exhausted budget.
	BudgetError = dataset.BudgetError
)

// LoadDatasetRobust reads a dataset directory under the quarantine
// contract: bad rows are skipped and collected into the returned report
// instead of failing the load, until the error budget in opts is exceeded
// (then a *BudgetError is returned). The report is non-nil even on failure.
func LoadDatasetRobust(dir string, opts QuarantineOptions) (*Dataset, *QuarantineReport, error) {
	return dataset.LoadDirRobust(dir, opts)
}

// SaveOptions tunes SaveDataset: gzip transport (.csv.gz).
type SaveOptions = dataset.SaveOptions

// SaveDataset writes d under dir as users.csv, switches.csv and plans.csv
// (or .csv.gz when opts.Gzip is set). Every table is staged in a temp file
// and renamed into place only after a complete write.
func SaveDataset(d *Dataset, dir string, opts SaveOptions) error {
	return d.SaveDirWith(dir, opts)
}

// SaveDatasetCtx is SaveDataset with cancellation: an interrupted save
// abandons its staging file and leaves no partial table at a final path.
func SaveDatasetCtx(ctx context.Context, d *Dataset, dir string, opts SaveOptions) error {
	return d.SaveDirCtx(ctx, dir, opts)
}

// Streaming dataset access: record-at-a-time readers and writers with
// constant per-row memory, for pipelines whose worlds do not fit in RAM.
type (
	// UserReader iterates a users CSV; Read returns io.EOF at the end.
	UserReader = dataset.Reader[User]
	// UserWriter streams user rows to CSV.
	UserWriter = dataset.Writer[User]
	// SwitchReader iterates a switches CSV.
	SwitchReader = dataset.Reader[Switch]
	// SwitchWriter streams switch rows to CSV.
	SwitchWriter = dataset.Writer[Switch]
	// PlanReader iterates a plan-survey CSV.
	PlanReader = dataset.Reader[Plan]
	// PlanWriter streams plan rows to CSV.
	PlanWriter = dataset.Writer[Plan]
)

// NewUserReader validates the users header and returns a streaming reader.
func NewUserReader(r io.Reader) (*UserReader, error) { return dataset.NewReader[User](r, "users") }

// NewUserWriter writes the users header and returns a streaming writer.
func NewUserWriter(w io.Writer) (*UserWriter, error) { return dataset.NewWriter[User](w) }

// NewSwitchReader validates the switches header and returns a streaming reader.
func NewSwitchReader(r io.Reader) (*SwitchReader, error) {
	return dataset.NewReader[Switch](r, "switches")
}

// NewSwitchWriter writes the switches header and returns a streaming writer.
func NewSwitchWriter(w io.Writer) (*SwitchWriter, error) { return dataset.NewWriter[Switch](w) }

// NewPlanReader validates the plans header and returns a streaming reader.
func NewPlanReader(r io.Reader) (*PlanReader, error) { return dataset.NewReader[Plan](r, "plans") }

// NewPlanWriter writes the plans header and returns a streaming writer.
func NewPlanWriter(w io.Writer) (*PlanWriter, error) { return dataset.NewWriter[Plan](w) }

// DefaultMarkets returns the built-in market profiles (a fresh copy; safe
// to mutate for ablation studies).
func DefaultMarkets() []MarketProfile { return market.World() }

// Experiments lists every reproduced table and figure in the paper's order.
func Experiments() []ReportEntry { return experiments.Registry() }

// ExtensionExperiments lists the analyses beyond the paper's artifacts
// (its Sec. 10 future-work directions: usage caps, user categories).
func ExtensionExperiments() []ReportEntry { return experiments.Extensions() }

// FindExperiment returns the registry entry for a paper artifact ID
// ("Table 1" … "Fig. 12"); extensions are not searched.
func FindExperiment(id string) (ReportEntry, bool) { return experiments.Find(id) }

// Run executes the reproduction of one paper artifact ("Table 1" … "Fig. 12")
// against a dataset. seed controls the matching order randomization.
func Run(id string, d *Dataset, seed uint64) (Report, error) {
	e, ok := experiments.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("broadband: unknown experiment %q", id)
	}
	return experiments.RunAt(e, d, seed)
}

// RunAll executes every reproduction, returning the reports in registry
// order. Every experiment runs even when another fails; the first error
// in registry order is returned alongside the reports preceding it.
// Experiments run concurrently through the one registry fan-out
// (parallelism is GOMAXPROCS; bound it with the environment variable);
// each seeds its own RNG from (seed, ID), so results are identical to a
// sequential run.
func RunAll(d *Dataset, seed uint64) ([]Report, error) {
	return RunAllCtx(context.Background(), d, seed)
}

// RunAllCtx is RunAll with cancellation: no new experiment starts after ctx
// is cancelled, experiments already running finish, and the call returns
// ctx.Err() alongside the reports completed before the cut. Experiment
// failures keep RunAll's contract — every entry still runs.
func RunAllCtx(ctx context.Context, d *Dataset, seed uint64) ([]Report, error) {
	return runEntries(ctx, experiments.Registry(), d, seed)
}

// runEntries runs an entry list through experiments.RunEach and reports
// the lowest-indexed failure with the reports preceding it — exactly what
// a sequential loop would report.
func runEntries(ctx context.Context, entries []ReportEntry, d *Dataset, seed uint64) ([]Report, error) {
	reports, errs, err := experiments.RunEach(ctx, entries, func(e ReportEntry) (Report, error) {
		return experiments.RunAt(e, d, seed)
	})
	if i := slices.IndexFunc(errs, func(err error) bool { return err != nil }); i >= 0 {
		return reports[:i], fmt.Errorf("broadband: %w", err)
	}
	return reports, err
}

// RunPaired evaluates the within-subject upgrade experiment (Table 1's
// design) over a switch panel with the given usage metric extractor.
func RunPaired(name string, switches []Switch, metric func(UsageSummary) float64) (ExperimentResult, error) {
	return core.RunPaired(name, switches, metric)
}

// Standard matching confounders.
var (
	ByRTT         = core.ConfounderRTT
	ByLoss        = core.ConfounderLoss
	ByAccessPrice = core.ConfounderAccessPrice
	ByUpgradeCost = core.ConfounderUpgradeCost
	ByCapacity    = core.ConfounderCapacity
)
