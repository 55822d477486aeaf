//go:build !race

package gp

const raceEnabled = false
