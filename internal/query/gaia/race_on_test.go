//go:build race

package gaia

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so absolute allocation bounds do not hold.
const raceEnabled = true
