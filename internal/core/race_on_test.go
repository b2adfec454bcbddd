//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; allocation
// guards skip themselves under it.
const raceEnabled = true
