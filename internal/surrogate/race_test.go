//go:build race

package surrogate

// raceEnabled reports a build with the race detector, under which the
// slowest regret race is skipped.
const raceEnabled = true
