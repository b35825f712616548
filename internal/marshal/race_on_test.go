//go:build race

package marshal

// raceEnabled: the race runtime allocates on the tested code's behalf, so
// allocation counts are not asserted under it.
const raceEnabled = true
