package dataset

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"github.com/nwca/broadband/internal/fsx"
	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/traffic"
	"github.com/nwca/broadband/internal/unit"
)

// CSV serialization. Rates are stored in Mbps, latencies in milliseconds,
// loss in percent and money in USD PPP — the units a human inspecting the
// files (or loading them into an external analysis tool) expects. Floats
// are written in shortest lossless form (strconv 'g', precision -1), so a
// save → load cycle reproduces every float64 bit-for-bit and a second save
// emits byte-identical files.
//
// Each of the three tables is described once, by a table descriptor: its
// file name, header, record encoder and decoder, and the domain check the
// quarantine applies. Everything else — the streaming Reader and Writer,
// WriteAll/ReadAll, the sharded parallel encoder and both directory
// loaders — is generic over the descriptor.

// Row is the set of record types stored as a table: users, service
// switches and plan-survey rows.
type Row interface {
	User | Switch | market.Plan
}

// table describes one CSV table.
type table[T Row] struct {
	name   string // "users", "switches", "plans": the file is name+".csv"
	header []string
	// encode appends one record's fields (the caller ends the row);
	// decode is its mirror, accumulating conversion errors on p.
	encode func(w *rowWriter, v *T)
	decode func(p *parser, v *T)
	// check rejects parsed rows that are physically or temporally
	// impossible; the robust loader quarantines them as FaultDomain.
	check func(v *T) error
}

var (
	usersTable = table[User]{
		name: "users",
		header: []string{
			"id", "country", "vantage", "year", "isp", "network",
			"plan_down_mbps", "plan_up_mbps", "plan_price_usd", "plan_tech", "plan_cap_gb",
			"capacity_mbps", "up_capacity_mbps", "rtt_ms", "web_rtt_ms", "loss_pct",
			"mean_mbps", "peak_mbps", "mean_nobt_mbps", "peak_nobt_mbps", "uses_bt", "archetype",
			"access_price_usd", "upgrade_cost_per_mbps",
		},
		encode: encodeUser, decode: decodeUser, check: checkUserDomain,
	}
	switchesTable = table[Switch]{
		name: "switches",
		header: []string{
			"user_id", "country", "from_net", "to_net", "from_down_mbps", "to_down_mbps",
			"before_mean_mbps", "before_peak_mbps", "before_mean_nobt_mbps", "before_peak_nobt_mbps",
			"after_mean_mbps", "after_peak_mbps", "after_mean_nobt_mbps", "after_peak_nobt_mbps",
		},
		encode: encodeSwitch, decode: decodeSwitch, check: checkSwitchDomain,
	}
	plansTable = table[market.Plan]{
		name: "plans",
		header: []string{
			"country", "isp", "down_mbps", "up_mbps", "price_local", "price_usd",
			"cap_gb", "tech", "dedicated",
		},
		encode: encodePlan, decode: decodePlan, check: checkPlanDomain,
	}
)

// tableOf returns the descriptor of T's table.
func tableOf[T Row]() *table[T] {
	var t any
	switch any((*T)(nil)).(type) {
	case *User:
		t = &usersTable
	case *Switch:
		t = &switchesTable
	case *market.Plan:
		t = &plansTable
	}
	return t.(*table[T])
}

func encodeUser(w *rowWriter, u *User) {
	w.i64(u.ID)
	w.str(u.Country)
	w.int(int(u.Vantage))
	w.int(u.Year)
	w.str(u.ISP)
	w.str(u.NetworkKey)
	w.f64(u.PlanDown.Mbps())
	w.f64(u.PlanUp.Mbps())
	w.f64(u.PlanPrice.Dollars())
	w.int(int(u.PlanTech))
	w.f64(u.PlanCap.GB())
	w.f64(u.Capacity.Mbps())
	w.f64(u.UpCapacity.Mbps())
	w.f64(u.RTT * 1000)
	w.f64(u.WebRTT * 1000)
	w.f64(u.Loss.Percent())
	w.f64(u.Usage.Mean.Mbps())
	w.f64(u.Usage.Peak.Mbps())
	w.f64(u.Usage.MeanNoBT.Mbps())
	w.f64(u.Usage.PeakNoBT.Mbps())
	w.bool(u.UsesBT)
	w.int(int(u.Archetype))
	w.f64(u.AccessPrice.Dollars())
	w.f64(float64(u.UpgradeCost))
}

func decodeUser(p *parser, u *User) {
	rec := p.rec
	*u = User{
		ID:          p.i64(0),
		Country:     rec[1],
		Vantage:     Vantage(p.int(2)),
		Year:        p.int(3),
		ISP:         rec[4],
		NetworkKey:  rec[5],
		PlanDown:    unit.MbpsOf(p.f64(6)),
		PlanUp:      unit.MbpsOf(p.f64(7)),
		PlanPrice:   unit.USD(p.f64(8)),
		PlanTech:    market.Technology(p.int(9)),
		PlanCap:     unit.ByteSize(p.f64(10) * float64(unit.GB)),
		Capacity:    unit.MbpsOf(p.f64(11)),
		UpCapacity:  unit.MbpsOf(p.f64(12)),
		RTT:         p.f64(13) / 1000,
		WebRTT:      p.f64(14) / 1000,
		Loss:        unit.LossFromPercent(p.f64(15)),
		UsesBT:      p.boolAt(20),
		Archetype:   traffic.Archetype(p.int(21)),
		AccessPrice: unit.USD(p.f64(22)),
		UpgradeCost: unit.PerMbps(p.f64(23)),
	}
	u.Usage = UsageSummary{
		Mean:     unit.MbpsOf(p.f64(16)),
		Peak:     unit.MbpsOf(p.f64(17)),
		MeanNoBT: unit.MbpsOf(p.f64(18)),
		PeakNoBT: unit.MbpsOf(p.f64(19)),
	}
}

func encodeSwitch(w *rowWriter, s *Switch) {
	w.i64(s.UserID)
	w.str(s.Country)
	w.str(s.FromNet)
	w.str(s.ToNet)
	w.f64(s.FromDown.Mbps())
	w.f64(s.ToDown.Mbps())
	w.f64(s.Before.Mean.Mbps())
	w.f64(s.Before.Peak.Mbps())
	w.f64(s.Before.MeanNoBT.Mbps())
	w.f64(s.Before.PeakNoBT.Mbps())
	w.f64(s.After.Mean.Mbps())
	w.f64(s.After.Peak.Mbps())
	w.f64(s.After.MeanNoBT.Mbps())
	w.f64(s.After.PeakNoBT.Mbps())
}

func decodeSwitch(p *parser, s *Switch) {
	rec := p.rec
	*s = Switch{
		UserID:   p.i64(0),
		Country:  rec[1],
		FromNet:  rec[2],
		ToNet:    rec[3],
		FromDown: unit.MbpsOf(p.f64(4)),
		ToDown:   unit.MbpsOf(p.f64(5)),
		Before: UsageSummary{
			Mean: unit.MbpsOf(p.f64(6)), Peak: unit.MbpsOf(p.f64(7)),
			MeanNoBT: unit.MbpsOf(p.f64(8)), PeakNoBT: unit.MbpsOf(p.f64(9)),
		},
		After: UsageSummary{
			Mean: unit.MbpsOf(p.f64(10)), Peak: unit.MbpsOf(p.f64(11)),
			MeanNoBT: unit.MbpsOf(p.f64(12)), PeakNoBT: unit.MbpsOf(p.f64(13)),
		},
	}
}

func encodePlan(w *rowWriter, p *market.Plan) {
	w.str(p.Country)
	w.str(p.ISP)
	w.f64(p.Down.Mbps())
	w.f64(p.Up.Mbps())
	w.f64(p.PriceLocal)
	w.f64(p.PriceUSD.Dollars())
	w.f64(p.Cap.GB())
	w.int(int(p.Tech))
	w.bool(p.Dedicated)
}

func decodePlan(p *parser, pl *market.Plan) {
	rec := p.rec
	*pl = market.Plan{
		Country:    rec[0],
		ISP:        rec[1],
		Down:       unit.MbpsOf(p.f64(2)),
		Up:         unit.MbpsOf(p.f64(3)),
		PriceLocal: p.f64(4),
		PriceUSD:   unit.USD(p.f64(5)),
		Cap:        unit.ByteSize(p.f64(6) * float64(unit.GB)),
		Tech:       market.Technology(p.int(7)),
		Dedicated:  p.boolAt(8),
	}
}

// SaveOptions tunes how SaveDirWith writes a dataset.
type SaveOptions struct {
	// Gzip writes users.csv.gz, switches.csv.gz and plans.csv.gz instead of
	// the plain files. LoadDir detects either by extension.
	Gzip bool
}

// SaveDir writes the dataset's users, switches and plans under dir as
// users.csv, switches.csv and plans.csv, encoding each table across
// GOMAXPROCS shards (the bytes are identical to a sequential encode).
func (d *Dataset) SaveDir(dir string) error {
	return d.SaveDirWith(dir, SaveOptions{})
}

// SaveDirWith is SaveDir with explicit transport options.
// Each table is staged in a temp file and renamed into place only after a
// complete write, so no failure mode leaves a partial table at a final
// path.
func (d *Dataset) SaveDirWith(dir string, opts SaveOptions) error {
	return d.SaveDirCtx(context.Background(), dir, opts)
}

// SaveDirCtx is SaveDirWith with cancellation: when ctx is cancelled the
// in-flight table write stops at the next row, its staging file is
// removed, and tables already committed remain complete — an interrupted
// save never leaves a partial artifact.
func (d *Dataset) SaveDirCtx(ctx context.Context, dir string, opts SaveOptions) error {
	if err := SaveTableCtx(ctx, dir, opts, d.Users); err != nil {
		return err
	}
	if err := SaveTableCtx(ctx, dir, opts, d.Switches); err != nil {
		return err
	}
	return SaveTableCtx(ctx, dir, opts, d.Plans)
}

// SaveTableCtx writes one table under dir as users.csv, switches.csv or
// plans.csv (.csv.gz per opts) with the atomic staging contract of
// SaveDirCtx, leaving the other tables alone. The out-of-core builder uses
// it to place the switch panel and the plan survey next to a sharded user
// table without materializing a Dataset.
func SaveTableCtx[T Row](ctx context.Context, dir string, opts SaveOptions, rows []T) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t := tableOf[T]()
	name := t.name + ".csv"
	if opts.Gzip {
		name += ".gz"
	}
	if err := writeTableCtx(ctx, filepath.Join(dir, name), opts.Gzip, func(w io.Writer) error {
		return writeSharded(ctx, w, t, rows, runtime.GOMAXPROCS(0))
	}); err != nil {
		return fmt.Errorf("dataset: writing %s: %w", name, err)
	}
	return nil
}

// ctxWriter fails every Write once its context is cancelled, bounding how
// much work a cancelled table write performs after the signal.
type ctxWriter struct {
	ctx context.Context
	w   io.Writer
}

func (c *ctxWriter) Write(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.w.Write(p)
}

// writeTableCtx stages path in a temp sibling and runs fn over a buffered
// (optionally gzip-compressed) writer that checks ctx on every write,
// renaming into place only after a complete, flushed write. Any failure
// abandons the staging file, so the final path either keeps its previous
// content or does not exist — a later LoadDir can never trip over a
// partial table.
func writeTableCtx(ctx context.Context, path string, gz bool, fn func(io.Writer) error) error {
	fp, err := fsx.CreateAtomic(path)
	if err != nil {
		return err
	}
	defer fp.Close()
	bw := bufio.NewWriterSize(&ctxWriter{ctx: ctx, w: fp}, 1<<16)
	var w io.Writer = bw
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(bw)
		w = zw
	}
	err = fn(w)
	if err == nil && zw != nil {
		err = zw.Close()
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return err
	}
	return fp.Commit()
}

func checkHeader(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("dataset: header has %d columns, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("dataset: header column %d is %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// parser accumulates the first conversion error over a CSV record.
type parser struct {
	rec []string
	err error
}

func (p *parser) f64(i int) float64 {
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(p.rec[i], 64)
	if err != nil {
		p.err = fmt.Errorf("field %d %q: %w", i, p.rec[i], err)
	}
	return v
}

func (p *parser) int(i int) int {
	if p.err != nil {
		return 0
	}
	v, err := strconv.Atoi(p.rec[i])
	if err != nil {
		p.err = fmt.Errorf("field %d %q: %w", i, p.rec[i], err)
	}
	return v
}

func (p *parser) i64(i int) int64 {
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(p.rec[i], 10, 64)
	if err != nil {
		p.err = fmt.Errorf("field %d %q: %w", i, p.rec[i], err)
	}
	return v
}

func (p *parser) boolAt(i int) bool {
	if p.err != nil {
		return false
	}
	v, err := strconv.ParseBool(p.rec[i])
	if err != nil {
		p.err = fmt.Errorf("field %d %q: %w", i, p.rec[i], err)
	}
	return v
}
