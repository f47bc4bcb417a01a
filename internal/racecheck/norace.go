//go:build !race

package racecheck

// Enabled reports whether the build carries the race detector.
const Enabled = false
