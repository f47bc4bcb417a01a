//go:build race

// Package racecheck tells tests whether the race detector is compiled in.
// Allocation guards skip under it: the detector makes sync.Pool drop items
// at random and allocates shadow state of its own, so object counts there
// describe the detector, not the code.
package racecheck

// Enabled reports whether the build carries the race detector.
const Enabled = true
