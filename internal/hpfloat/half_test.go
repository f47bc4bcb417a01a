package hpfloat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKnownValues(t *testing.T) {
	cases := []struct {
		f    float32
		wire half
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},                 // largest finite
		{6.103515625e-05, 0x0400},       // smallest normal 2^-14
		{5.960464477539063e-08, 0x0001}, // smallest subnormal 2^-24
		{0.333251953125, 0x3555},        // nearest half to 1/3
	}
	for _, tc := range cases {
		if got := fromFloat32(tc.f); got != tc.wire {
			t.Errorf("fromFloat32(%g) = %#04x, want %#04x", tc.f, got, tc.wire)
		}
		if back := tc.wire.Float32(); back != tc.f {
			t.Errorf("Float32(%#04x) = %g, want %g", tc.wire, back, tc.f)
		}
	}
}

// FP16 wire patterns of the special values.
const (
	positiveInfinity half = 0x7C00
	negativeInfinity half = 0xFC00
	quietNaN         half = 0x7E00
)

func TestSpecialValues(t *testing.T) {
	if fromFloat32(float32(math.Inf(1))) != positiveInfinity {
		t.Error("+Inf conversion wrong")
	}
	if fromFloat32(float32(math.Inf(-1))) != negativeInfinity {
		t.Error("-Inf conversion wrong")
	}
	if !fromFloat32(float32(math.NaN())).IsNaN() {
		t.Error("NaN conversion wrong")
	}
	if !positiveInfinity.IsInf() || !negativeInfinity.IsInf() {
		t.Error("IsInf wrong")
	}
	if positiveInfinity.IsFinite() || quietNaN.IsFinite() {
		t.Error("IsFinite wrong")
	}
	if quietNaN.IsInf() {
		t.Error("NaN is not Inf")
	}
	if !math.IsNaN(float64(quietNaN.Float32())) {
		t.Error("NaN round-trip lost NaN-ness")
	}
	// Overflow saturates to Inf.
	if fromFloat32(70000) != positiveInfinity {
		t.Error("overflow should give +Inf")
	}
	if fromFloat32(-70000) != negativeInfinity {
		t.Error("negative overflow should give -Inf")
	}
	// Deep underflow flushes to signed zero.
	if fromFloat32(1e-12) != 0 {
		t.Error("underflow should give +0")
	}
	if fromFloat32(-1e-12) != 0x8000 {
		t.Error("negative underflow should give -0")
	}
	// Signed zero round-trips.
	negZero := fromFloat32(float32(math.Copysign(0, -1)))
	if negZero != 0x8000 {
		t.Errorf("negative zero = %#04x", negZero)
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1.0 and the next half
	// (1 + 2^-10); ties go to even mantissa → 1.0.
	f := float32(1) + float32(math.Pow(2, -11))
	if got := fromFloat32(f); got != 0x3C00 {
		t.Errorf("tie should round to even (1.0), got %#04x (%g)", got, got.Float32())
	}
	// 1 + 3·2^-11 is halfway between 1+2^-10 (odd mantissa 1) and
	// 1+2^-9 (even mantissa 2) → rounds up to even.
	f = float32(1) + 3*float32(math.Pow(2, -11))
	if got := fromFloat32(f); got != 0x3C02 {
		t.Errorf("tie should round up to even, got %#04x (%g)", got, got.Float32())
	}
	// Clearly above halfway rounds up (factor large enough to survive
	// float32 rounding of the sum).
	f = float32(1) + float32(math.Pow(2, -11))*1.25
	if got := fromFloat32(f); got != 0x3C01 {
		t.Errorf("above halfway should round up, got %#04x", got)
	}
}

func TestExhaustiveRoundTrip(t *testing.T) {
	// Every FP16 bit pattern must survive half → float32 → half unchanged
	// (NaNs must stay NaN; payloads may differ).
	for i := 0; i <= 0xFFFF; i++ {
		h := half(i)
		f := h.Float32()
		back := fromFloat32(f)
		if h.IsNaN() {
			if !back.IsNaN() {
				t.Fatalf("NaN %#04x did not survive round trip", i)
			}
			continue
		}
		if back != h {
			t.Fatalf("%#04x → %g → %#04x", i, f, back)
		}
	}
}

func TestConversionMonotonic(t *testing.T) {
	// Property: conversion preserves ordering for finite values.
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		// Clamp into finite FP16 territory so Inf ties don't confuse order.
		ha, hb := fromFloat32(a).Float32(), fromFloat32(b).Float32()
		if a < b {
			return ha <= hb
		}
		return ha >= hb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeErrorBound(t *testing.T) {
	// Property: for normal-range values, relative rounding error ≤ 2^-11.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		exp := rng.Intn(29) - 14 // normal exponent range
		v := (1 + rng.Float64()) * math.Pow(2, float64(exp))
		if rng.Intn(2) == 0 {
			v = -v
		}
		h := fromFloat32(float32(v))
		rel := math.Abs(h.Float64()-v) / math.Abs(v)
		if rel > math.Pow(2, -11) {
			t.Fatalf("rel error %g for %g", rel, v)
		}
	}
}

func TestArithmetic(t *testing.T) {
	a, b := fromFloat32(1.5), fromFloat32(2.25)
	if a.Add(b).Float32() != 3.75 {
		t.Error("Add wrong")
	}
	if a.Mul(b).Float32() != 3.375 {
		t.Error("Mul wrong")
	}
	if b.Sub(a).Float32() != 0.75 {
		t.Error("Sub wrong")
	}
	// Catastrophic FP16 absorption: 2048 + 1 == 2048 (spacing is 2 there).
	big, one := fromFloat32(2048), fromFloat32(1)
	if big.Add(one) != big {
		t.Error("expected absorption at 2048+1")
	}
}

func TestVectorKernels(t *testing.T) {
	back := []float32{0, 1, -2, 0.5, 65504, 70000, 1e-12}
	RoundTrip(back)
	if back[0] != 0 || back[1] != 1 || back[2] != -2 || back[3] != 0.5 || back[4] != 65504 {
		t.Fatalf("vector round trip wrong: %v", back)
	}
	if !math.IsInf(float64(back[5]), 1) {
		t.Error("70000 should overflow")
	}
	if back[6] != 0 {
		t.Error("1e-12 should flush to zero")
	}

	x := []float32{0.1, 0.2, 0.3}
	RoundTrip(x)
	for i, v := range x {
		if fromFloat32(v).Float32() != v {
			t.Errorf("RoundTrip[%d] not idempotent", i)
		}
	}
}

func TestLossScaler(t *testing.T) {
	s := NewLossScaler()
	if s.Scale != 1024 {
		t.Fatal("default scale")
	}
	g := []float32{1e-7, 2e-7} // below FP16 subnormal floor ≈ 6e-8? (1e-7 is fine but tiny)
	s.Apply(g)
	if g[0] != 1e-7*1024 {
		t.Fatal("Apply wrong")
	}
	s.Unapply(g)
	if math.Abs(float64(g[0])-1e-7) > 1e-12 {
		t.Fatal("Unapply wrong")
	}
	// Overflow halves the scale and skips.
	if s.Update(true) {
		t.Fatal("overflow step should be skipped")
	}
	if s.Scale != 512 {
		t.Fatalf("scale after overflow = %g", s.Scale)
	}
	if s.SkippedSteps() != 1 {
		t.Fatal("skip count wrong")
	}
	// Growth after GrowthInterval clean steps.
	s.GrowthInterval = 3
	for i := 0; i < 3; i++ {
		if !s.Update(false) {
			t.Fatal("clean step should apply")
		}
	}
	if s.Scale != 1024 {
		t.Fatalf("scale after growth = %g", s.Scale)
	}
	// Scale never drops below 1.
	s.Scale = 1
	s.Update(true)
	if s.Scale != 1 {
		t.Fatal("scale should floor at 1")
	}
	// Scale never exceeds MaxScale.
	s.Scale = s.MaxScale
	s.GrowthInterval = 1
	s.Update(false)
	if s.Scale != s.MaxScale {
		t.Fatal("scale should cap at MaxScale")
	}
}

func TestScalingRescuesSmallGradients(t *testing.T) {
	// The motivating behaviour: gradients below the FP16 subnormal floor
	// vanish without scaling but survive with it.
	tiny := float32(2e-8) // below half the smallest subnormal 2^-25 ≈ 2.98e-8
	if fromFloat32(tiny) != 0 {
		t.Fatal("test premise: tiny must underflow")
	}
	s := &LossScaler{Scale: 1024}
	g := []float32{tiny}
	s.Apply(g)
	h := fromFloat32(g[0])
	if h == 0 {
		t.Fatal("scaled gradient still underflowed")
	}
	g[0] = h.Float32()
	s.Unapply(g)
	rel := math.Abs(float64(g[0])-float64(tiny)) / float64(tiny)
	if rel > 0.05 {
		t.Fatalf("recovered gradient off by %g", rel)
	}
}

func TestPackWordsRoundtrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 64, 101} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(i)*0.37 - 11.5
		}
		words := make([]float32, WireWords(n))
		PackWords(src, words)

		dst := make([]float32, n)
		UnpackWords(words, dst)
		for i := range src {
			want := fromFloat32(src[i]).Float32()
			if dst[i] != want {
				t.Fatalf("n=%d elem %d: unpack %v, want fp16 round %v", n, i, dst[i], want)
			}
		}

		acc := make([]float32, n)
		for i := range acc {
			acc[i] = 1000
		}
		UnpackAddWords(words, acc)
		for i := range acc {
			want := 1000 + fromFloat32(src[i]).Float32()
			if acc[i] != want {
				t.Fatalf("n=%d elem %d: unpack-add %v, want %v", n, i, acc[i], want)
			}
		}
	}
}
