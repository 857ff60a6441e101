//go:build race

package guardtest

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
