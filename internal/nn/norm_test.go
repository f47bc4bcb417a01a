package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// reluRef is the training ReLU's rule, the reference rectify must match.
func reluRef(v float32) float32 {
	if v > 0 {
		return v
	}
	return 0
}

// TestRectifyMatchesBranch checks the branch-free rectifier against
// v > 0 ? v : 0 bit for bit: on the boundary patterns (±0, the smallest and
// largest subnormals and normals, ±Inf, quiet and signalling NaNs of both
// signs) and on a stride through all 2³² patterns.
func TestRectifyMatchesBranch(t *testing.T) {
	check := func(b uint32) {
		v := math.Float32frombits(b)
		if got, want := math.Float32bits(rectify(v)), math.Float32bits(reluRef(v)); got != want {
			t.Fatalf("rectify(%#08x) = %#08x, want %#08x", b, got, want)
		}
	}
	for _, b := range []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x007fffff, 0x80000001, 0x807fffff, // subnormals
		0x00800000, 0x3f800000, 0x7f7fffff, 0x80800000, 0xbf800000, 0xff7fffff,
		0x7f800000, 0xff800000, // ±Inf
		0x7f800001, 0x7fc00000, 0x7fffffff, 0xff800001, 0xffc00000, 0xffffffff, // NaNs
	} {
		check(b)
	}
	for b := uint64(0); b < 1<<32; b += 65521 {
		check(uint32(b))
	}
}

// TestFusedBNReLUMatchesBatchNormReLU checks the fused inference kernel
// against the unfused pair it replaces — BatchNorm{PerSample} then ReLU —
// bit for bit, on activations whose channels hold NaN, ±Inf, ±0 and
// subnormals, one channel of zero variance, and a zero γ with a −0 β.
func TestFusedBNReLUMatchesBatchNormReLU(t *testing.T) {
	const n, c, h, w = 2, 6, 5, 7
	rng := rand.New(rand.NewSource(30))
	x := tensor.RandNormal(tensor.NCHW(n, c, h, w), 0, 1, rng)
	xd := x.Data()
	hw := h * w
	negZero := float32(math.Copysign(0, -1))
	for img := 0; img < n; img++ {
		ch := func(k int) []float32 { return xd[(img*c+k)*hw : (img*c+k+1)*hw] }
		ch(0)[3] = float32(math.NaN())
		ch(1)[5] = float32(math.Inf(1))
		ch(1)[6] = float32(math.Inf(-1))
		for i := range ch(2) { // finite statistics, special values inside
			switch i % 4 {
			case 0:
				ch(2)[i] = negZero
			case 1:
				ch(2)[i] = math.Float32frombits(uint32(1 + i)) // subnormal
			case 2:
				ch(2)[i] = 0
			}
		}
		for i := range ch(3) { // zero variance
			ch(3)[i] = 0.375
		}
	}
	gamma := tensor.RandNormal(tensor.Shape{c}, 1, 0.5, rng)
	beta := tensor.RandNormal(tensor.Shape{c}, 0, 0.5, rng)
	gamma.Data()[4] = 0
	beta.Data()[4] = negZero

	const eps = 1e-5
	bn := &BatchNorm{Eps: eps, PerSample: true}
	want := ReLU{}.Forward([]*tensor.Tensor{bn.Forward([]*tensor.Tensor{x, gamma, beta})})
	got := (&fusedBNReLU{Eps: eps}).Forward([]*tensor.Tensor{x, gamma, beta})
	for i, v := range want.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("element %d (channel %d): fused %v (%#08x), BatchNorm+ReLU %v (%#08x)",
				i, i/hw%c, got.Data()[i], math.Float32bits(got.Data()[i]), v, math.Float32bits(v))
		}
	}
}
