//go:build !race

package core

// raceEnabled reports a -race build; tests skip their largest inputs there.
const raceEnabled = false
