//go:build !race

package htmlx

// raceEnabled reports whether the race detector is compiled in; the
// allocation gate skips under it, because instrumentation allocates and
// sync.Pool drops some Puts on purpose.
const raceEnabled = false
