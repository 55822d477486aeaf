//go:build !race

package lcm

const raceEnabled = false
