//go:build race

package masort

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// pooled items at random, so allocation bounds do not hold under it.
const raceEnabled = true
