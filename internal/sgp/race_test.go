//go:build race

package sgp

// raceEnabled reports a build with the race detector, which drops
// sync.Pool items at random: a warm Predict may then allocate, so its
// zero-allocation check runs only without it.
const raceEnabled = true
