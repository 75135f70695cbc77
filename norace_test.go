//go:build !race

package masort

const raceEnabled = false
