//go:build race

package fleet

// raceEnabled reports whether the race detector is compiled in; the
// allocation-gate tests skip under it because instrumentation allocates.
const raceEnabled = true
