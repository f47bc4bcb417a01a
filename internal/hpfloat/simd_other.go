//go:build !amd64

package hpfloat

// Scalar-only architectures: the SIMD entry points decline every call and
// the portable reference implementations run.

func simdRoundTrip(x []float32) bool              { return false }
func simdPackWords(src, dst []float32) int        { return 0 }
func simdUnpackAddWords(words, dst []float32) int { return 0 }
func simdUnpackWords(words, dst []float32) int    { return 0 }
