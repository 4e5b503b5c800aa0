package dataset

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// dirtyDatasetDir writes a sample dataset and perturbs its users table
// with a variant-specific mix of quarantine-class dirt. Each variant has a
// distinct diagnostic fingerprint, so a cross-contaminated concurrent load
// (one goroutine's diags bleeding into another's report) cannot match its
// directory's reference.
func dirtyDatasetDir(t *testing.T, variant int) string {
	t.Helper()
	dir := savedSampleDir(t, sampleDataset())
	path := filepath.Join(dir, "users.csv")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	header, first := lines[0], lines[1]
	fields := strings.Count(header, ",") + 1

	switch variant % 3 {
	case 0: // one duplicated row → FaultDuplicate
		lines = append(lines, first)
	case 1: // wrong field count → FaultSyntax, plus a duplicate
		lines = append(lines, "garbage", first)
	case 2: // right field count, unparseable fields → FaultParse, twice
		junk := strings.TrimSuffix(strings.Repeat("x,", fields), ",")
		lines = append(lines, junk, junk)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// savedSampleDir saves d to a fresh directory after giving the US and JP
// markets a plan ladder: the robust loader rebuilds market summaries from
// the saved plan survey, and the upgrade-cost regression needs several
// tiers to succeed (mirrors TestLoadDirRoundTrip).
func savedSampleDir(t *testing.T, d *Dataset) string {
	t.Helper()
	dir := t.TempDir()
	for _, mbps := range []float64{1, 2, 4, 8, 16} {
		d.Plans = append(d.Plans,
			planFor("US", mbps, 20+0.55*(mbps-1)),
			planFor("JP", mbps, 21+0.08*(mbps-1)),
		)
	}
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLoadDirRobustConcurrent pins quarantine ingestion under concurrent
// uploads: goroutines overlapping on a shared set of dirty directories
// must each produce exactly the RowDiag set a sequential load of their
// directory produces — no cross-contamination between racing reports, no
// shared mutable state in the readers. Run under -race in CI.
func TestLoadDirRobustConcurrent(t *testing.T) {
	const dirs = 3
	const loadersPerDir = 4
	// Each variant dirties 1–2 of a handful of rows — far past the default
	// 5% budget by design; the test is about report isolation, not budgets.
	loose := QuarantineOptions{MaxBadFrac: 0.9}

	paths := make([]string, dirs)
	want := make([]*QuarantineReport, dirs)
	wantUsers := make([]int, dirs)
	for i := range paths {
		paths[i] = dirtyDatasetDir(t, i)
		d, rep, err := LoadDirRobust(paths[i], loose)
		if err != nil {
			t.Fatalf("reference load %d: %v", i, err)
		}
		if len(rep.Diags) == 0 {
			t.Fatalf("variant %d injected no quarantinable dirt", i)
		}
		want[i] = rep
		wantUsers[i] = len(d.Users)
	}

	var wg sync.WaitGroup
	errs := make(chan error, dirs*loadersPerDir)
	for i := 0; i < dirs; i++ {
		for j := 0; j < loadersPerDir; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				d, rep, err := LoadDirRobust(paths[i], loose)
				if err != nil {
					errs <- fmt.Errorf("loader %d/%d: %v", i, j, err)
					return
				}
				if err := d.Validate(); err != nil {
					errs <- fmt.Errorf("loader %d/%d: quarantine let corruption through: %v", i, j, err)
					return
				}
				if len(d.Users) != wantUsers[i] {
					errs <- fmt.Errorf("loader %d/%d: %d users, want %d", i, j, len(d.Users), wantUsers[i])
					return
				}
				if !reflect.DeepEqual(rep.Diags, want[i].Diags) {
					errs <- fmt.Errorf("loader %d/%d: diag set diverged from sequential reference:\n got %v\nwant %v",
						i, j, rep.Diags, want[i].Diags)
					return
				}
				if rep.RowsRead != want[i].RowsRead || rep.RowsKept != want[i].RowsKept {
					errs <- fmt.Errorf("loader %d/%d: counts %d/%d, want %d/%d",
						i, j, rep.RowsKept, rep.RowsRead, want[i].RowsKept, want[i].RowsRead)
				}
			}(i, j)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
