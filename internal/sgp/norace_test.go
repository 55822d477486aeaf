//go:build !race

package sgp

const raceEnabled = false
