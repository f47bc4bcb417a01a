package hpfloat

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/simd"
)

// The FP16 precision contract requires the vector converters to be
// BIT-IDENTICAL to the software reference — not merely close. The FP16
// wire format's cross-rank bit-identity and the FP16 executor's
// bit-exact-resume proof both ride on conversions being deterministic
// functions of the value alone, independent of the active ISA.

// refToHalf is the scalar reference, forced regardless of ISA.
func refToHalf(src []float32, dst []half) {
	for i, v := range src {
		dst[i] = fromFloat32(v)
	}
}

func requireSIMD(t *testing.T) {
	t.Helper()
	if !simd.UseF16C() {
		t.Skip("F16C unavailable or disabled (EXACLIM_NOSIMD=1): scalar path already covered")
	}
}

// TestF16CBitExactAllHalves rounds every representable FP16 value (as
// float32) through the F16C round trip, which converts down and back up:
// 65536 cases, exhaustive in both directions.
func TestF16CBitExactAllHalves(t *testing.T) {
	requireSIMD(t)
	got := make([]float32, 1<<16)
	for i := range got {
		got[i] = half(i).Float32()
	}
	RoundTrip(got)
	for i, v := range got {
		// NaNs: compare bit patterns exactly too — payload propagation
		// must match the software converter.
		want := fromFloat32(half(i).Float32()).Float32()
		if math.Float32bits(v) != math.Float32bits(want) {
			t.Fatalf("half %#04x: simd %#08x, scalar %#08x",
				i, math.Float32bits(v), math.Float32bits(want))
		}
	}
}

// TestF16CBitExactFloat32Sweep checks the F32→F16 rounding boundaries the
// exhaustive-halves test cannot reach: random mantissas (RNE halfway
// cases), denormal inputs, overflow saturation, and NaN payloads.
func TestF16CBitExactFloat32Sweep(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(11))
	const n = 1 << 20
	src := make([]float32, n)
	for i := range src {
		src[i] = math.Float32frombits(rng.Uint32())
	}
	// Directed patterns appended over the random fill: exact halfway
	// mantissas (guard bit set, sticky zero), just-above/below halfway,
	// FP16 overflow boundary 65520, denormal range, signed zeros, signaling
	// NaNs with payloads, infinities.
	directed := []uint32{
		0x477FF000, // 65520: exactly halfway to Inf — RNE rounds to Inf
		0x477FEFFF, 0x477FF001,
		0x33800000, 0x33800001, // 2^-24: smallest-subnorm halfway
		0x337FFFFF, 0x34000000,
		0x38801000, 0x38801001, 0x38800FFF, // normal halfway patterns
		0x00000000, 0x80000000,
		0x7F800001, 0x7FABCDEF, 0xFFC00001, // NaNs (signaling + payload)
		0x7F800000, 0xFF800000,
		0x00000001, 0x007FFFFF, // FP32 denormals
	}
	for i, bits := range directed {
		src[i] = math.Float32frombits(bits)
	}
	want := make([]half, n)
	refToHalf(src, want)

	// RoundTrip must agree bit-for-bit with convert-down-then-up.
	rt := append([]float32(nil), src...)
	RoundTrip(rt)
	for i := range rt {
		wantF := want[i].Float32()
		if math.Float32bits(rt[i]) != math.Float32bits(wantF) {
			t.Fatalf("roundtrip f32 %#08x: simd %#08x, scalar %#08x",
				math.Float32bits(src[i]), math.Float32bits(rt[i]), math.Float32bits(wantF))
		}
	}
}

// TestF16CWireParity proves the packed wire format (send + both receive
// flavors) is bit-identical between the SIMD and scalar paths, for every
// alignment the tail handling can produce.
func TestF16CWireParity(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 64, 100, 1000, 4097} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		gotW := make([]float32, WireWords(n))
		wantW := make([]float32, WireWords(n))
		PackWords(src, gotW)
		prev := simd.SetDisabled(true)
		PackWords(src, wantW)
		simd.SetDisabled(prev)
		for i := range gotW {
			if math.Float32bits(gotW[i]) != math.Float32bits(wantW[i]) {
				t.Fatalf("n=%d word %d: simd %#08x scalar %#08x",
					n, i, math.Float32bits(gotW[i]), math.Float32bits(wantW[i]))
			}
		}

		base := make([]float32, n)
		for i := range base {
			base[i] = float32(rng.NormFloat64())
		}
		gotAdd := append([]float32(nil), base...)
		wantAdd := append([]float32(nil), base...)
		UnpackAddWords(gotW, gotAdd)
		prev = simd.SetDisabled(true)
		UnpackAddWords(wantW, wantAdd)
		simd.SetDisabled(prev)
		for i := range gotAdd {
			if math.Float32bits(gotAdd[i]) != math.Float32bits(wantAdd[i]) {
				t.Fatalf("n=%d unpack-add %d: simd %v scalar %v", n, i, gotAdd[i], wantAdd[i])
			}
		}

		gotU := make([]float32, n)
		wantU := make([]float32, n)
		UnpackWords(gotW, gotU)
		prev = simd.SetDisabled(true)
		UnpackWords(wantW, wantU)
		simd.SetDisabled(prev)
		for i := range gotU {
			if math.Float32bits(gotU[i]) != math.Float32bits(wantU[i]) {
				t.Fatalf("n=%d unpack %d: simd %v scalar %v", n, i, gotU[i], wantU[i])
			}
		}
	}
}
