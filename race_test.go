//go:build race

package repro

// raceEnabled reports whether the race detector is on. Its
// instrumentation allocates, so allocation ceilings skip under it.
const raceEnabled = true
