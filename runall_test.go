package broadband

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/experiments"
	"github.com/nwca/broadband/internal/randx"
)

// fakeReport satisfies experiments.Report for the injected entries.
type fakeReport struct{ id string }

func (r fakeReport) ID() string     { return r.id }
func (r fakeReport) Title() string  { return "injected" }
func (r fakeReport) Render() string { return r.id + "\n" }

// failAt builds an entry list where the entries at the given indices fail
// and every other entry succeeds, counting executions as it goes.
func failAt(n int, ran *atomic.Int32, fail map[int]error) []experiments.Entry {
	entries := make([]experiments.Entry, n)
	for i := range entries {
		i := i
		id := fmt.Sprintf("E%02d", i)
		entries[i] = experiments.Entry{ID: id, Title: "injected", Run: func(*dataset.Dataset, *randx.Source) (experiments.Report, error) {
			ran.Add(1)
			if err := fail[i]; err != nil {
				return nil, err
			}
			return fakeReport{id: id}, nil
		}}
	}
	return entries
}

// setProcs sets GOMAXPROCS for the rest of the test (n <= 0 keeps the
// default) and restores it on cleanup. Outputs never depend on GOMAXPROCS,
// so the change cannot break a test running concurrently.
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestRunEntriesFailureInjection pins the error contract of the experiment
// fan-out under mid-run failures, for every GOMAXPROCS shape (workers=0 is
// the default): all entries still run, the returned error is the
// lowest-indexed failure, and the partial report slice is exactly the
// prefix preceding it — what a sequential loop would have reported. Run
// under -race this also exercises concurrent error collection.
func TestRunEntriesFailureInjection(t *testing.T) {
	errMid := errors.New("mid-run failure")
	errLate := errors.New("late failure")
	for _, workers := range []int{1, 2, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			setProcs(t, workers)
			var ran atomic.Int32
			entries := failAt(12, &ran, map[int]error{7: errLate, 3: errMid})
			reports, err := runEntries(context.Background(), entries, &dataset.Dataset{}, 1)
			if !errors.Is(err, errMid) {
				t.Fatalf("err = %v, want the lowest-indexed failure %v", err, errMid)
			}
			if got := ran.Load(); got != 12 {
				t.Errorf("%d of 12 entries ran; a failure must not cancel the rest", got)
			}
			if len(reports) != 3 {
				t.Fatalf("got %d partial reports, want the 3 preceding the failure", len(reports))
			}
			for i, rep := range reports {
				if want := fmt.Sprintf("E%02d", i); rep.ID() != want {
					t.Errorf("partial report %d is %s, want %s", i, rep.ID(), want)
				}
			}
		})
	}
}

// TestRunEntriesErrorNamesArtifact: the wrapped error must carry the
// failing entry's ID so drift reports and operators can name the culprit.
func TestRunEntriesErrorNamesArtifact(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	entries := failAt(5, &ran, map[int]error{2: boom})
	setProcs(t, 2)
	_, err := runEntries(context.Background(), entries, &dataset.Dataset{}, 1)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if want := "E02"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the failing artifact %s", err, want)
	}
}

// TestRunEntriesAllSucceed: the no-failure path returns every report in
// entry order regardless of goroutine interleaving.
func TestRunEntriesAllSucceed(t *testing.T) {
	var ran atomic.Int32
	entries := failAt(9, &ran, nil)
	setProcs(t, 3)
	reports, err := runEntries(context.Background(), entries, &dataset.Dataset{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 9 {
		t.Fatalf("got %d reports, want 9", len(reports))
	}
	for i, rep := range reports {
		if want := fmt.Sprintf("E%02d", i); rep.ID() != want {
			t.Errorf("report %d is %s, want %s", i, rep.ID(), want)
		}
	}
}
