package hpfloat

import "repro/internal/simd"

// Assembly kernels (half_amd64.s). Each handles n values where n is a
// multiple of 8; wrappers run the scalar reference on the tail. The
// hardware conversions are bit-identical to the software reference (RNE,
// saturation, denormal flush, sNaN quieting) — proven exhaustively by
// TestF16CBitExactAllHalves / TestF16CBitExactFloat32Sweep.

//go:noescape
func roundTripF16C(x *float32, n int)

//go:noescape
func packWordsF16C(src *float32, dst *float32, n int)

//go:noescape
func unpackAddF16C(words *float32, dst *float32, n int)

//go:noescape
func unpackWordsF16C(words *float32, dst *float32, n int)

func simdRoundTrip(x []float32) bool {
	if !simd.UseF16C() || len(x) < 8 {
		return false
	}
	n := len(x) &^ 7
	roundTripF16C(&x[0], n)
	for i := n; i < len(x); i++ {
		x[i] = fromFloat32(x[i]).Float32()
	}
	return true
}

// simdPackWords packs full 8-value groups (4 wire words) with F16C and
// returns how many source values it consumed; the caller packs the rest
// with the scalar reference.
func simdPackWords(src, dst []float32) int {
	if !simd.UseF16C() || len(src) < 8 {
		return 0
	}
	n := len(src) &^ 7
	packWordsF16C(&src[0], &dst[0], n)
	return n
}

// simdUnpackAddWords unpacks-and-accumulates full 8-value groups,
// returning how many destination values it handled.
func simdUnpackAddWords(words, dst []float32) int {
	if !simd.UseF16C() || len(dst) < 8 {
		return 0
	}
	n := len(dst) &^ 7
	unpackAddF16C(&words[0], &dst[0], n)
	return n
}

// simdUnpackWords unpacks full 8-value groups, returning how many
// destination values it handled.
func simdUnpackWords(words, dst []float32) int {
	if !simd.UseF16C() || len(dst) < 8 {
		return 0
	}
	n := len(dst) &^ 7
	unpackWordsF16C(&words[0], &dst[0], n)
	return n
}
