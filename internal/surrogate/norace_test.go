//go:build !race

package surrogate

const raceEnabled = false
