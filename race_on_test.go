//go:build race

package symbol

// raceEnabled reports whether the race detector is compiled in. Under it,
// memory figures are not meaningful: the detector's shadow memory
// multiplies the resident set.
const raceEnabled = true
