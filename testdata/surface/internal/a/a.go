// Package a holds one exported name per rule of the surface checker.
package a

// OwnTestOnly is named only by this package's own test: unreached.
func OwnTestOnly() {}

// OtherTestOnly is named by another package's test: reached.
func OtherTestOnly() {}

// Carried is reached only because Make's signature carries it.
type Carried struct{ N int }

// Make is named by the command.
func Make() Carried { return Carried{} }

// Hidden is carried only by an unexported field of a reached struct:
// unreached.
type Hidden struct{}

// Holder is named by the command.
type Holder struct {
	hidden Hidden
}

// Mode is carried by the type of its reached constants.
type Mode int

// The command names only ModeB; the enumeration stays whole.
const (
	ModeA Mode = iota
	ModeB
	ModeC
)
