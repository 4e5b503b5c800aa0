package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/synth"
)

// The fixture world is built once and saved per test into fresh temp dirs,
// so each test perturbs a pristine copy.
var (
	fixtureOnce sync.Once
	fixtureData *dataset.Dataset
	fixtureErr  error
)

func fixture(t *testing.T) *dataset.Dataset {
	t.Helper()
	fixtureOnce.Do(func() {
		w, err := synth.Build(synth.Config{
			Seed: 99, Users: 220, FCCUsers: 60, Days: 1, SwitchTarget: 60,
		})
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureData = &w.Data
	})
	if fixtureErr != nil {
		t.Fatalf("fixture world: %v", fixtureErr)
	}
	return fixtureData
}

// saveFixture writes the fixture dataset into a fresh directory.
func saveFixture(t *testing.T, gz bool) string {
	t.Helper()
	dir := t.TempDir()
	if err := fixture(t).SaveDirWith(dir, dataset.SaveOptions{Gzip: gz}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func readTables(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, base := range Tables {
		path := filepath.Join(dir, base)
		raw, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			raw, err = os.ReadFile(path + ".gz")
		}
		if err != nil {
			t.Fatal(err)
		}
		out[base] = raw
	}
	return out
}

// TestChaosSeedDeterminism pins the injector's core contract: the same
// seed produces a byte-identical fault pattern — perturbed files and event
// log — on independent copies of the same dataset, and a different seed
// produces a different pattern.
func TestChaosSeedDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, Rate: 0.2, TruncateProb: 0, CorruptProb: 0}
	dirA, dirB := saveFixture(t, false), saveFixture(t, false)
	logA, err := New(cfg).PerturbDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	logB, err := New(cfg).PerturbDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if len(logA.Events) == 0 {
		t.Fatal("no faults injected at rate 0.2; the fixture is too small or the injector is broken")
	}
	ja, _ := json.Marshal(logA)
	jb, _ := json.Marshal(logB)
	if !bytes.Equal(ja, jb) {
		t.Errorf("same seed produced different fault logs:\n%s\nvs\n%s", ja, jb)
	}
	ta, tb := readTables(t, dirA), readTables(t, dirB)
	for _, base := range Tables {
		if !bytes.Equal(ta[base], tb[base]) {
			t.Errorf("same seed produced different bytes for %s", base)
		}
	}

	dirC := saveFixture(t, false)
	logC, err := New(Config{Seed: 8, Rate: 0.2}).PerturbDir(dirC)
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(logC)
	if bytes.Equal(ja, jc) {
		t.Error("different seeds produced identical fault logs")
	}
}

// TestChaosFaultClassesThroughQuarantine drives every row-level fault
// class, alone, through the robust loader and checks the quarantine sees
// exactly what the fault model promises. The budget is disabled so high
// single-class rates cannot short-circuit the load.
func TestChaosFaultClassesThroughQuarantine(t *testing.T) {
	base := fixture(t)
	baseRows := len(base.Users) + len(base.Switches) + len(base.Plans)
	noBudget := dataset.QuarantineOptions{MaxBadFrac: 1}

	cases := []struct {
		fault Fault
		check func(t *testing.T, d *dataset.Dataset, rep *dataset.QuarantineReport, log *Log)
	}{
		{CounterReset, func(t *testing.T, d *dataset.Dataset, rep *dataset.QuarantineReport, log *Log) {
			counts := rep.Counts()
			if counts[dataset.FaultDomain] == 0 {
				t.Error("counter resets (negative rates) must quarantine as domain faults")
			}
		}},
		{Wraparound, func(t *testing.T, d *dataset.Dataset, rep *dataset.QuarantineReport, log *Log) {
			if rep.Counts()[dataset.FaultDomain] == 0 {
				t.Error("wraparounds (absurd rates) must quarantine as domain faults")
			}
		}},
		{ClockSkew, func(t *testing.T, d *dataset.Dataset, rep *dataset.QuarantineReport, log *Log) {
			if rep.Counts()[dataset.FaultDomain] == 0 {
				t.Error("clock skew (year outside the panel window) must quarantine as a domain fault")
			}
			for _, u := range d.Users {
				if u.Year < 1995 || u.Year > 2035 {
					t.Fatalf("skewed year %d survived into the loaded dataset", u.Year)
				}
			}
		}},
		{GarbageField, func(t *testing.T, d *dataset.Dataset, rep *dataset.QuarantineReport, log *Log) {
			counts := rep.Counts()
			if counts[dataset.FaultParse]+counts[dataset.FaultDomain] == 0 {
				t.Error("garbage fields must quarantine as parse or domain faults")
			}
		}},
		{DuplicateRow, func(t *testing.T, d *dataset.Dataset, rep *dataset.QuarantineReport, log *Log) {
			if rep.Counts()[dataset.FaultDuplicate] == 0 {
				t.Error("duplicated user rows must demote as duplicate faults")
			}
			seen := make(map[int64]bool)
			for _, u := range d.Users {
				if seen[u.ID] {
					t.Fatalf("duplicate user id %d survived the robust load", u.ID)
				}
				seen[u.ID] = true
			}
		}},
		{DropRow, func(t *testing.T, d *dataset.Dataset, rep *dataset.QuarantineReport, log *Log) {
			got := len(d.Users) + len(d.Switches) + len(d.Plans)
			if got >= baseRows {
				t.Errorf("dropped rows should shrink the dataset: %d rows vs %d baseline", got, baseRows)
			}
			if len(log.Events) == 0 {
				t.Error("drops must appear in the injection log")
			}
		}},
		{SwapRows, func(t *testing.T, d *dataset.Dataset, rep *dataset.QuarantineReport, log *Log) {
			if len(rep.Diags) != 0 {
				t.Errorf("reordered rows are semantically clean; got %d quarantine diags", len(rep.Diags))
			}
			got := len(d.Users) + len(d.Switches) + len(d.Plans)
			if got != baseRows {
				t.Errorf("swaps must preserve the row population: %d vs %d", got, baseRows)
			}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.fault.String(), func(t *testing.T) {
			dir := saveFixture(t, false)
			log, err := New(Config{Seed: 41, Rate: 0.15, Faults: []Fault{tc.fault}}).PerturbDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			d, rep, err := dataset.LoadDirRobust(dir, noBudget)
			if err != nil {
				t.Fatalf("robust load failed under %s: %v\n%s", tc.fault, err, rep.Render())
			}
			tc.check(t, d, rep, log)
		})
	}
}

// TestChaosMixedFaultsNeverPanic floods the loader with every fault class
// at a brutal rate and requires a typed outcome either way: a dataset plus
// report, or a *BudgetError / *RowError. Any panic fails the test.
func TestChaosMixedFaultsNeverPanic(t *testing.T) {
	for _, gz := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			dir := saveFixture(t, gz)
			cfg := Config{Seed: seed, Rate: 0.5, TruncateProb: 0.4, CorruptProb: 0.4}
			if _, err := New(cfg).PerturbDir(dir); err != nil {
				t.Fatal(err)
			}
			_, rep, err := dataset.LoadDirRobust(dir, dataset.QuarantineOptions{})
			if err == nil {
				continue // survived within budget: fine
			}
			var be *dataset.BudgetError
			var re *dataset.RowError
			if !errors.As(err, &be) && !errors.As(err, &re) {
				t.Errorf("gz=%v seed=%d: load failed with untyped error %T: %v", gz, seed, err, err)
			}
			if rep == nil {
				t.Errorf("gz=%v seed=%d: failed load must still return its report", gz, seed)
			}
		}
	}
}

// TestChaosBudgetExceededIsTyped: at a 25% fault rate the default 5%
// budget must trip, and the failure must be the single summarizing
// *BudgetError, not a per-row error or a panic.
func TestChaosBudgetExceededIsTyped(t *testing.T) {
	dir := saveFixture(t, false)
	if _, err := New(Config{Seed: 3, Rate: 0.25}).PerturbDir(dir); err != nil {
		t.Fatal(err)
	}
	_, rep, err := dataset.LoadDirRobust(dir, dataset.QuarantineOptions{})
	if err == nil {
		t.Fatalf("25%% fault rate loaded within a 5%% budget; report:\n%s", rep.Render())
	}
	var be *dataset.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %T: %v", err, err)
	}
	if be.Bad == 0 || be.Read == 0 || len(be.Counts) == 0 {
		t.Errorf("budget error is not summarizing: %+v", be)
	}
	if !strings.Contains(be.Error(), "error budget exceeded") {
		t.Errorf("budget error message %q", be.Error())
	}
}

// TestChaosTruncatedShardIsTerminal: a truncated gzip shard can never
// checksum, so the robust loader must fail with a typed *RowError rather
// than return a silently short table.
func TestChaosTruncatedShardIsTerminal(t *testing.T) {
	dir := saveFixture(t, true)
	log, err := New(Config{Seed: 5, TruncateProb: 1}).PerturbDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := log.Counts()[TruncateShard]; got != len(Tables) {
		t.Fatalf("expected every table truncated, got %d events", got)
	}
	_, _, err = dataset.LoadDirRobust(dir, dataset.QuarantineOptions{MaxBadFrac: 1})
	var re *dataset.RowError
	if !errors.As(err, &re) {
		t.Fatalf("want terminal *RowError, got %T: %v", err, err)
	}
	if re.Class != dataset.FaultTruncated && re.Class != dataset.FaultIO {
		t.Errorf("truncated shard classified as %v", re.Class)
	}
}

// TestChaosCorruptGzipIsTerminal: a flipped byte in a gzip member breaks
// the deflate stream or its CRC; the load must fail typed, not short.
func TestChaosCorruptGzipIsTerminal(t *testing.T) {
	dir := saveFixture(t, true)
	log, err := New(Config{Seed: 6, CorruptProb: 1}).PerturbDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if log.Counts()[CorruptGzip] != len(Tables) {
		t.Fatalf("expected every member corrupted: %s", log.Render())
	}
	_, _, err = dataset.LoadDirRobust(dir, dataset.QuarantineOptions{MaxBadFrac: 1})
	var re *dataset.RowError
	if !errors.As(err, &re) {
		t.Fatalf("want terminal *RowError, got %T: %v", err, err)
	}
	if re.Class != dataset.FaultTruncated && re.Class != dataset.FaultIO {
		t.Errorf("corrupt gzip classified as %v", re.Class)
	}
}

// TestChaosFlakyReaderSurfacesTypedIOFault: transient read failures reach
// the robust reader as terminal io faults carrying the injected cause.
func TestChaosFlakyReaderSurfacesTypedIOFault(t *testing.T) {
	var buf bytes.Buffer
	if err := dataset.WriteAll(&buf, fixture(t).Users); err != nil {
		t.Fatal(err)
	}
	in := New(Config{Seed: 11})
	// Rate 1: the very first read fails, before the header parses.
	r := in.FlakyReader("users.csv", bytes.NewReader(buf.Bytes()), 1)
	_, err := dataset.ReadAll[dataset.User](r, "users")
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want injected *FaultError in the chain, got %T: %v", err, err)
	}
	if fe.Op != "read" || fe.Call != 1 {
		t.Errorf("unexpected fault identity: %+v", fe)
	}
}

// TestChaosFlakyIODeterminism: the failing call set is a pure function of
// (seed, file), whatever the caller's buffer sizes.
func TestChaosFlakyIODeterminism(t *testing.T) {
	pattern := func(seed uint64) []int {
		in := New(Config{Seed: seed})
		w := in.FlakyWriter("out.csv", io.Discard, 0.3)
		var fails []int
		for i := 1; i <= 200; i++ {
			if _, err := w.Write([]byte("x")); err != nil {
				var fe *FaultError
				if !errors.As(err, &fe) {
					t.Fatalf("untyped write fault %T", err)
				}
				if fe.Call != i {
					t.Fatalf("fault reports call %d at call %d", fe.Call, i)
				}
				fails = append(fails, i)
			}
		}
		return fails
	}
	a, b := pattern(21), pattern(21)
	if len(a) == 0 {
		t.Fatal("rate 0.3 over 200 calls injected nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different fault sets: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different fault sets: %v vs %v", a, b)
		}
	}
}

// TestChaosPerturbCSVRejectsUnknownTable: the injector refuses tables it
// has no fault geometry for instead of guessing.
func TestChaosPerturbCSVRejectsUnknownTable(t *testing.T) {
	if _, _, err := New(Config{Rate: 0.5}).PerturbCSV("mystery.csv", []byte("a,b\n1,2\n")); err == nil {
		t.Error("unknown table must be rejected")
	}
}

// TestChaosZeroRateIsIdentity: a zero-rate injector must not touch a byte.
func TestChaosZeroRateIsIdentity(t *testing.T) {
	dir := saveFixture(t, false)
	before := readTables(t, dir)
	log, err := New(Config{Seed: 1}).PerturbDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 0 {
		t.Fatalf("zero-rate injector logged %d events", len(log.Events))
	}
	after := readTables(t, dir)
	for _, base := range Tables {
		if !bytes.Equal(before[base], after[base]) {
			t.Errorf("zero-rate injector modified %s", base)
		}
	}
}
