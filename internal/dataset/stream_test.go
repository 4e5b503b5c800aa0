package dataset

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/unit"
)

// manyUsers builds a deterministic, heterogeneous population large enough
// to exercise shard boundaries and buffer reuse.
func manyUsers(n int) []User {
	countries := []string{"US", "JP", "DE", "BR", "IN"}
	users := make([]User, n)
	for i := range users {
		u := sampleUser(int64(i+1), countries[i%len(countries)], 1.5+float64(i%37)*0.83)
		u.Year = 2011 + i%3
		u.UsesBT = i%3 == 0
		u.RTT = 0.005 + float64(i)*1e-4/3
		u.Loss = unit.LossRate(float64(i%11) * 1e-4 / 7)
		u.Usage.Mean = unit.Bitrate(float64(i) * 1234.567 / 9)
		u.AccessPrice = unit.USD(7.77 + float64(i)/13)
		users[i] = u
	}
	return users
}

func TestStreamingWritersMatchSliceAPI(t *testing.T) {
	d := sampleDataset()
	var slice, stream bytes.Buffer
	if err := WriteAll(&slice, d.Users); err != nil {
		t.Fatal(err)
	}
	uw, err := NewWriter[User](&stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Users {
		if err := uw.Write(&d.Users[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(slice.Bytes(), stream.Bytes()) {
		t.Error("record-at-a-time user encoding differs from slice API")
	}

	slice.Reset()
	stream.Reset()
	if err := WriteAll(&slice, d.Switches); err != nil {
		t.Fatal(err)
	}
	sw, err := NewWriter[Switch](&stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Switches {
		if err := sw.Write(&d.Switches[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(slice.Bytes(), stream.Bytes()) {
		t.Error("record-at-a-time switch encoding differs from slice API")
	}

	slice.Reset()
	stream.Reset()
	if err := WriteAll(&slice, d.Plans); err != nil {
		t.Fatal(err)
	}
	pw, err := NewWriter[market.Plan](&stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Plans {
		if err := pw.Write(&d.Plans[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(slice.Bytes(), stream.Bytes()) {
		t.Error("record-at-a-time plan encoding differs from slice API")
	}
}

func TestStreamingReaderMatchesSliceAPI(t *testing.T) {
	users := manyUsers(137)
	var buf bytes.Buffer
	if err := WriteAll(&buf, users); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	whole, err := ReadAll[User](bytes.NewReader(raw), "users")
	if err != nil {
		t.Fatal(err)
	}
	ur, err := NewReader[User](bytes.NewReader(raw), "users")
	if err != nil {
		t.Fatal(err)
	}
	var streamed []User
	var u User
	for {
		err := ur.Read(&u)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, u)
	}
	if len(streamed) != len(whole) {
		t.Fatalf("streamed %d users, slice API %d", len(streamed), len(whole))
	}
	for i := range streamed {
		if streamed[i] != whole[i] {
			t.Fatalf("user %d differs between streaming and slice reads:\n%+v\n%+v", i, streamed[i], whole[i])
		}
	}
}

// TestShardedEncodeByteIdentical is the determinism contract of the
// parallel encoder: any shard count, same bytes.
func TestShardedEncodeByteIdentical(t *testing.T) {
	users := manyUsers(101)
	d := sampleDataset()
	var ref bytes.Buffer
	if err := WriteAll(&ref, users); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 7, 16, 101, 333} {
		var got bytes.Buffer
		if err := writeSharded(context.Background(), &got, tableOf[User](), users, shards); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !bytes.Equal(ref.Bytes(), got.Bytes()) {
			t.Errorf("users encode with %d shards differs from sequential", shards)
		}
	}

	var refS bytes.Buffer
	if err := WriteAll(&refS, d.Switches); err != nil {
		t.Fatal(err)
	}
	var gotS bytes.Buffer
	if err := writeSharded(context.Background(), &gotS, tableOf[Switch](), d.Switches, 4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refS.Bytes(), gotS.Bytes()) {
		t.Error("switches encode differs across shard counts")
	}

	var refP bytes.Buffer
	if err := WriteAll(&refP, d.Plans); err != nil {
		t.Fatal(err)
	}
	var gotP bytes.Buffer
	if err := writeSharded(context.Background(), &gotP, tableOf[market.Plan](), d.Plans, 4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refP.Bytes(), gotP.Bytes()) {
		t.Error("plans encode differs across shard counts")
	}
}

// TestShardedEncodeStopsOnCancel: a save whose context is already
// cancelled encodes no shard and writes nothing.
func TestShardedEncodeStopsOnCancel(t *testing.T) {
	users := manyUsers(101)
	tbl := *tableOf[User]()
	var encoded atomic.Int64
	enc := tbl.encode
	tbl.encode = func(w *rowWriter, u *User) {
		encoded.Add(1)
		enc(w, u)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, shards := range []int{2, 8} {
		var out bytes.Buffer
		err := writeSharded(ctx, &out, &tbl, users, shards)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: err = %v, want context.Canceled", shards, err)
		}
		if n := encoded.Load(); n != 0 || out.Len() != 0 {
			t.Fatalf("shards=%d: %d rows encoded, %d bytes written after cancellation", shards, n, out.Len())
		}
	}
}

func TestSaveDirWithGzipRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gz")
	d := sampleDataset()
	for _, mbps := range []float64{1, 2, 4, 8, 16} {
		d.Plans = append(d.Plans,
			planFor("US", mbps, 20+0.55*(mbps-1)),
			planFor("JP", mbps, 21+0.08*(mbps-1)),
		)
	}
	if err := d.SaveDirWith(dir, SaveOptions{Gzip: true}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"users.csv.gz", "switches.csv.gz", "plans.csv.gz"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s missing: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "users.csv")); err == nil {
		t.Fatal("plain users.csv written alongside gzip")
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Users) != len(d.Users) || len(back.Switches) != len(d.Switches) || len(back.Plans) != len(d.Plans) {
		t.Fatalf("gzip round trip changed sizes: %d users %d switches %d plans",
			len(back.Users), len(back.Switches), len(back.Plans))
	}
	for i := range back.Users {
		if back.Users[i] != d.Users[i] {
			t.Fatalf("user %d not preserved through gzip: %+v vs %+v", i, back.Users[i], d.Users[i])
		}
	}
}

func TestQuotedFieldsSurviveStreaming(t *testing.T) {
	u := sampleUser(1, "US", 10)
	u.ISP = `Comma, "Quote" & Co`
	u.NetworkKey = "net with space/città"
	var buf bytes.Buffer
	if err := WriteAll(&buf, []User{u}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll[User](&buf, "users")
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].ISP != u.ISP || back[0].NetworkKey != u.NetworkKey {
		t.Fatalf("quoted fields mangled: %+v", back)
	}
}

// TestLosslessFloatFields drives adversarial float64 values through a CSV
// cycle and asserts exact field equality: denormals, 17-significant-digit
// values, and the huge draws a heavy-tailed Pareto can emit.
func TestLosslessFloatFields(t *testing.T) {
	adversarial := []float64{
		5e-324, // smallest denormal
		math.SmallestNonzeroFloat64 * 7,
		0.1 + 0.2, // 0.30000000000000004 — 17 significant digits
		1.0 / 3.0,
		math.Nextafter(1, 2),   // 1 + ulp
		9007199254740993.0,     // 2^53 + 1 territory
		1.7976931348623157e308, // MaxFloat64
		2.2250738585072014e-308,
		123456789.12345679,  // survey-scale price with full mantissa
		8.98846567431158e15, // large bounded-Pareto volume draw
	}
	for _, v := range adversarial {
		u := sampleUser(1, "US", 10)
		// Identity-mapped fields (no unit scaling on either side).
		u.PlanPrice = unit.USD(v)
		u.AccessPrice = unit.USD(v)
		u.UpgradeCost = unit.PerMbps(v)
		var buf bytes.Buffer
		if err := WriteAll(&buf, []User{u}); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAll[User](&buf, "users")
		if err != nil {
			t.Fatalf("value %g: %v", v, err)
		}
		if got := back[0].PlanPrice.Dollars(); got != v {
			t.Errorf("plan price %g round-tripped as %g", v, got)
		}
		if got := back[0].AccessPrice.Dollars(); got != v {
			t.Errorf("access price %g round-tripped as %g", v, got)
		}
		if got := float64(back[0].UpgradeCost); got != v {
			t.Errorf("upgrade cost %g round-tripped as %g", v, got)
		}

		p := market.Plan{Country: "US", ISP: "X", PriceLocal: v, PriceUSD: unit.USD(v)}
		buf.Reset()
		if err := WriteAll(&buf, []market.Plan{p}); err != nil {
			t.Fatal(err)
		}
		plans, err := ReadAll[market.Plan](&buf, "plans")
		if err != nil {
			t.Fatalf("value %g: %v", v, err)
		}
		if plans[0].PriceLocal != v || plans[0].PriceUSD.Dollars() != v {
			t.Errorf("plan prices %g round-tripped as %g / %g", v, plans[0].PriceLocal, plans[0].PriceUSD.Dollars())
		}
	}
}

// TestScaledFieldsStableAfterOneCycle: fields stored with unit scaling
// (Mbps, ms, percent) must reach a fixed point after a single save→load
// cycle, so re-saving a loaded dataset is byte-identical.
func TestScaledFieldsStableAfterOneCycle(t *testing.T) {
	users := manyUsers(200)
	var first bytes.Buffer
	if err := WriteAll(&first, users); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadAll[User](bytes.NewReader(first.Bytes()), "users")
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteAll(&second, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("users CSV not byte-identical after save→load→save")
	}
	reloaded, err := ReadAll[User](bytes.NewReader(second.Bytes()), "users")
	if err != nil {
		t.Fatal(err)
	}
	for i := range reloaded {
		if reloaded[i] != loaded[i] {
			t.Fatalf("user %d drifted on second cycle", i)
		}
	}
}

func TestStreamWriterReportsRowNumber(t *testing.T) {
	users := manyUsers(50)
	// The header is ~280 bytes and each user row >80; failing after 600
	// bytes lands mid-stream, a few data rows in.
	uw, err := NewWriter[User](&errWriter{n: 600})
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	for i := range users {
		if werr = uw.Write(&users[i]); werr != nil {
			break
		}
	}
	if werr == nil {
		t.Fatal("mid-stream sink failure not surfaced")
	}
	if !strings.Contains(werr.Error(), "users row ") {
		t.Errorf("error %q does not carry the row number", werr)
	}
	// Sticky: later writes keep failing with the original row context.
	if again := uw.Write(&users[0]); again == nil || !strings.Contains(again.Error(), "users row ") {
		t.Errorf("sticky error lost: %v", again)
	}
}
