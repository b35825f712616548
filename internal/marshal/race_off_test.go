//go:build !race

package marshal

const raceEnabled = false
