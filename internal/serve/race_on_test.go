//go:build race

package serve

// raceEnabled reports whether the race detector is compiled in. Under it,
// timings are not meaningful: the detector slows every memory access.
const raceEnabled = true
