package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
)

// baselineRe matches committed trajectory files: BENCH_<pr>.json.
var baselineRe = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// LatestBaseline returns the path of the BENCH_<n>.json in dir with the
// highest PR index, or "" (with nil error) when dir holds none. Indices
// compare numerically: a lexical sort would place BENCH_10.json before
// BENCH_6.json and silently gate CI against a stale baseline once the
// trajectory reaches double digits. Resolve the baseline BEFORE writing a
// new trajectory file, or a run could compare against its own output.
func LatestBaseline(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestName := -1, ""
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		m := baselineRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		idx, err := strconv.Atoi(m[1])
		if err != nil || idx <= best {
			continue
		}
		best, bestName = idx, e.Name()
	}
	if best < 0 {
		return "", nil
	}
	return filepath.Join(dir, bestName), nil
}

// NextBaseline returns the path of the next free trajectory file in dir:
// BENCH_<n+1>.json after the highest-indexed BENCH_<n>.json, or
// BENCH_1.json when dir holds none.
func NextBaseline(dir string) (string, error) {
	latest, err := LatestBaseline(dir)
	if err != nil {
		return "", err
	}
	next := 1
	if latest != "" {
		// LatestBaseline only returns names whose index parsed.
		n, _ := strconv.Atoi(baselineRe.FindStringSubmatch(filepath.Base(latest))[1])
		next = n + 1
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next)), nil
}
