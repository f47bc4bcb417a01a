package tensor

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// fma32Exact is the reference for fma32: a·b + c computed exactly with
// math/big, then rounded once to float32, ties to even. Non-finite
// operands follow IEEE 754's FMA: any NaN, or Inf·0, or a sum of opposite
// infinities gives NaN; otherwise an infinite operand gives that infinity.
func fma32Exact(a, b, c float32) float32 {
	fa, fb, fc := float64(a), float64(b), float64(c)
	if math.IsNaN(fa) || math.IsNaN(fb) || math.IsNaN(fc) ||
		math.IsInf(fa, 0) || math.IsInf(fb, 0) || math.IsInf(fc, 0) {
		return float32(fa*fb + fc) // every operation here is exact or non-finite
	}
	// 106 bits hold any product of two float32s, and 1000 any sum of it
	// with a float32 (exponents span 2⁻²⁹⁸ to 2²⁵⁶), so both are exact.
	p := new(big.Float).SetPrec(106).Mul(big.NewFloat(fa), big.NewFloat(fb))
	s := new(big.Float).SetPrec(1000).Add(p, big.NewFloat(fc))
	if s.Sign() == 0 {
		// An exact zero sum is +0 unless both addends are −0 (IEEE 754 §6.3).
		negZeroProduct := (fa == 0 || fb == 0) && math.Signbit(fa) != math.Signbit(fb)
		if negZeroProduct && fc == 0 && math.Signbit(fc) {
			return float32(math.Copysign(0, -1))
		}
		return 0
	}
	// big.Float.Float32 rounds to nearest even, with float32's subnormals
	// and overflow to ±Inf.
	f, _ := s.Float32()
	return f
}

// naiveFMA32 is the double-rounding emulation fma32 must not be: the float64
// sum rounded to float64, then again to float32.
func naiveFMA32(a, b, c float32) float32 {
	return float32(float64(a)*float64(b) + float64(c))
}

func checkFMA32(t *testing.T, a, b, c float32) {
	t.Helper()
	got, want := fma32(a, b, c), fma32Exact(a, b, c)
	if math.IsNaN(float64(want)) {
		if !math.IsNaN(float64(got)) {
			t.Fatalf("fma32(%g, %g, %g) = %g, want NaN", a, b, c, got)
		}
		return
	}
	if math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("fma32(%g, %g, %g) = %g (%#x), exact rounding %g (%#x)",
			a, b, c, got, math.Float32bits(got), want, math.Float32bits(want))
	}
}

// TestFMA32 checks fma32 against the correctly rounded a·b + c: cases built
// so that rounding the float64 sum twice is wrong, signed zero results,
// subnormal results, overflow, non-finite operands, and a random sweep.
func TestFMA32(t *testing.T) {
	f := math.Float32frombits
	rng := rand.New(rand.NewSource(1))

	// Double-rounding traps: a = 1 + i·2⁻¹² and b = 1 + j·2⁻¹² with i·j
	// odd make a·b = 1 + (i+j)·2⁻¹² + i·j·2⁻²⁴ exactly, a float32 midpoint.
	// A c below half a float64 ulp leaves the float64 sum on the midpoint,
	// where ties-to-even picks a side whatever c's sign: the wrong one for
	// about half the cases. Scaling by powers of two and flipping signs
	// moves the trap across exponents.
	doubles := 0
	for n := 0; n < 4000; n++ {
		i, j := 2*rng.Intn(1<<10)+1, 2*rng.Intn(1<<10)+1
		a := 1 + float32(i)*0x1p-12
		b := 1 + float32(j)*0x1p-12
		c := float32(math.Ldexp(1+rng.Float64(), -54-rng.Intn(40)))
		if rng.Intn(2) == 0 {
			c = -c
		}
		scale := float32(math.Ldexp(1, rng.Intn(120)-60))
		if rng.Intn(2) == 0 {
			scale = -scale
		}
		a, c = a*scale, c*scale
		checkFMA32(t, a, b, c)
		if naiveFMA32(a, b, c) != fma32Exact(a, b, c) {
			doubles++
		}
	}
	if doubles < 1000 {
		t.Fatalf("only %d of 4000 traps round wrongly twice: the construction tests nothing", doubles)
	}

	// Signed zeros: an exact zero sum is +0 unless both addends are −0.
	negZero := float32(math.Copysign(0, -1))
	for _, tc := range [][3]float32{
		{0, 5, 0}, {negZero, 5, 0}, {negZero, 5, negZero}, {0, -5, negZero},
		{2, 3, -6}, {-2, 3, 6}, {negZero, negZero, negZero}, {0, 0, negZero},
	} {
		checkFMA32(t, tc[0], tc[1], tc[2])
	}
	if got := fma32(negZero, 5, negZero); math.Float32bits(got) != math.Float32bits(negZero) {
		t.Fatalf("fma32(-0, 5, -0) = %g, want -0", got)
	}

	// Subnormal results, including ones that round across the normal
	// boundary and products far below the smallest subnormal.
	const ulp, half = 0x1p-23, 0x1p-24 // the ulp of 1, and of the floats just below 1
	minNorm := f(0x00800000)
	minSub := f(0x00000001)
	for _, tc := range [][3]float32{
		{minNorm, 0.5, 0}, {minNorm, 0.75, minSub}, {minSub, 0.5, 0}, {minSub, 0.5, minSub},
		{minSub, 1.5, 0}, {minSub, 2.5, 0}, {minNorm, 1 - ulp, 0}, {minNorm, -(1 - half), minSub},
		{float32(math.Ldexp(1, -80)), float32(math.Ldexp(1, -80)), minSub},
		{float32(math.Ldexp(1, -80)), float32(math.Ldexp(1, -80)), -minSub},
		{float32(math.Ldexp(1, -75)), float32(math.Ldexp(3, -75)), 0},
		{3, f(0x00555555), -minNorm},
	} {
		checkFMA32(t, tc[0], tc[1], tc[2])
	}

	// Overflow to ±Inf, and sums that stay just finite.
	maxF := float32(math.MaxFloat32)
	for _, tc := range [][3]float32{
		{maxF, 2, 0}, {maxF, -2, 0}, {maxF, 1, maxF}, {maxF, 1, -maxF},
		{maxF, 1, f(0x73000000)}, {maxF, 1, f(0x72ffffff)}, {maxF, 1 + ulp, -maxF},
		{1e20, 1e20, 0}, {-1e20, 1e20, 1},
	} {
		checkFMA32(t, tc[0], tc[1], tc[2])
	}

	// Non-finite operands: NaN-ness and infinities, not payloads.
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, tc := range [][3]float32{
		{inf, 0, 1}, {0, inf, 1}, {inf, 2, -inf}, {inf, 2, inf}, {inf, -2, 1}, {2, 3, inf},
		{2, 3, -inf}, {nan, 1, 1}, {1, nan, 1}, {1, 1, nan}, {maxF, 2, -inf}, {negZero, -inf, 0},
	} {
		checkFMA32(t, tc[0], tc[1], tc[2])
	}

	// A random sweep over all bit patterns.
	for n := 0; n < 200000; n++ {
		checkFMA32(t, f(rng.Uint32()), f(rng.Uint32()), f(rng.Uint32()))
	}
}

// FuzzFMA32 checks fma32 against the correctly rounded a·b + c on any three
// bit patterns.
func FuzzFMA32(f *testing.F) {
	f.Add(uint32(0x3f800800), uint32(0x3f800800), uint32(0x21800000)) // (1+2⁻¹²)² + 2⁻⁶⁰: rounding twice is wrong
	f.Add(uint32(0x3f800001), uint32(0x3f7fffff), uint32(0x33000000))
	f.Add(uint32(0x00800000), uint32(0x3f400000), uint32(0x00000001))
	f.Add(uint32(0x7f7fffff), uint32(0x40000000), uint32(0))
	f.Add(uint32(0x7f800000), uint32(0), uint32(0x3f800000))
	f.Add(uint32(0x80000000), uint32(0x40a00000), uint32(0x80000000))
	f.Fuzz(func(t *testing.T, a, b, c uint32) {
		checkFMA32(t, math.Float32frombits(a), math.Float32frombits(b), math.Float32frombits(c))
	})
}
