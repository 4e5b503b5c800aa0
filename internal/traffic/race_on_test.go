//go:build race

package traffic

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of its items on purpose, so allocation counts are not meaningful.
const raceEnabled = true
