// Package hpfloat implements IEEE-754 binary16 ("half precision", FP16) in
// software. The paper's headline 1.13 EF/s result relies on V100 Tensor
// Cores operating on FP16 inputs; this package provides the numerics of
// that datapath — round-to-nearest-even conversion, saturating ranges,
// vector conversion kernels, and the static loss-scaling helpers used to
// keep small gradients representable — so the mixed-precision training path
// can be exercised end to end on a CPU.
package hpfloat

import "math"

// half is an IEEE-754 binary16 value stored in its 16-bit wire format:
// 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
type half uint16

// fromFloat32 converts a float32 to half with round-to-nearest-even,
// following the same semantics as hardware F32→F16 conversion instructions:
// overflow produces ±Inf, underflow denormalizes then flushes to ±0.
func fromFloat32(f float32) half {
	bits := math.Float32bits(f)
	sign := half(bits>>16) & 0x8000
	exp := int32(bits>>23) & 0xFF
	mant := bits & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf or NaN
		if mant != 0 {
			// Preserve a quiet NaN; keep top mantissa bits for payload flavor.
			return sign | 0x7C00 | half(mant>>13) | 0x0200
		}
		return sign | 0x7C00
	case exp == 0 && mant == 0:
		return sign // signed zero
	}

	// Unbias and rebias: float32 bias 127 → float16 bias 15.
	e := exp - 127 + 15
	if e >= 0x1F {
		return sign | 0x7C00 // overflow → Inf
	}
	if e <= 0 {
		// Subnormal half (or underflow to zero). Shift in the implicit bit.
		if e < -10 {
			return sign // magnitude below smallest subnormal → 0
		}
		m := mant | 0x800000
		shift := uint32(14 - e)
		bits16 := m >> shift
		// Round to nearest even on the bits shifted out.
		rem := m & ((1 << shift) - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && bits16&1 == 1) {
			bits16++
		}
		return sign | half(bits16)
	}

	// Normal case: keep top 10 mantissa bits, round-to-nearest-even on bit 13.
	bits16 := (uint32(e) << 10) | (mant >> 13)
	rem := mant & 0x1FFF
	if rem > 0x1000 || (rem == 0x1000 && bits16&1 == 1) {
		bits16++ // may carry into the exponent, correctly producing Inf
	}
	return sign | half(bits16)
}

// Float32 converts a half back to float32 exactly (every FP16 value is
// representable in FP32). Signaling NaNs are quieted with their payload
// preserved, matching hardware F16→F32 conversion (and keeping this
// reference bit-identical to the F16C vector kernel); NaNs produced by
// fromFloat32 are already quiet, so round trips are unaffected.
func (h half) Float32() float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1F
	mant := uint32(h) & 0x3FF

	switch {
	case exp == 0x1F: // Inf / NaN
		if mant != 0 {
			mant |= 0x200 // quiet bit
		}
		return math.Float32frombits(sign | 0x7F800000 | mant<<13)
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal: normalize by shifting until the implicit bit appears.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3FF
		return math.Float32frombits(sign | e<<23 | mant<<13)
	}
	return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
}

// IsNaN reports whether h is a NaN.
func (h half) IsNaN() bool {
	return h&0x7C00 == 0x7C00 && h&0x3FF != 0
}

// IsInf reports whether h is ±Inf.
func (h half) IsInf() bool {
	return h&0x7FFF == 0x7C00
}

// IsFinite reports whether h is neither Inf nor NaN.
func (h half) IsFinite() bool {
	return h&0x7C00 != 0x7C00
}

// Float64 converts to float64.
func (h half) Float64() float64 { return float64(h.Float32()) }

// Add returns h+o computed in FP32 and rounded back to FP16, matching the
// behaviour of a half-precision FMA datapath with an FP32 accumulator
// truncated per operation.
func (h half) Add(o half) half { return fromFloat32(h.Float32() + o.Float32()) }

// Mul returns h*o rounded to FP16.
func (h half) Mul(o half) half { return fromFloat32(h.Float32() * o.Float32()) }

// Sub returns h-o rounded to FP16.
func (h half) Sub(o half) half { return fromFloat32(h.Float32() - o.Float32()) }
