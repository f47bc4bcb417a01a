package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestDirectConvBitParity sweeps geometries (kernel sizes, pads, dilations,
// channel counts, batch, non-square inputs) and asserts the inference-mode
// forward is bit-identical to the training forward. This is the contract
// that makes serving masks reproduce the training-kernel masks;
// TestTrainConvMatchesIm2colReference pins the training forward itself to
// the materialized im2col+GEMM formulation.
func TestDirectConvBitParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []struct {
		n, cin, cout, h, w, kern, pad, dil int
	}{
		{1, 3, 4, 9, 9, 3, 1, 1},
		{2, 4, 6, 16, 16, 3, 1, 1},
		{1, 8, 4, 16, 16, 5, 2, 1},
		{3, 2, 3, 11, 17, 3, 2, 2}, // dilated, asymmetric input
		{1, 1, 1, 8, 8, 3, 1, 1},   // single channel
		{2, 5, 7, 12, 10, 5, 4, 2}, // 5×5 dilated
		{1, 6, 31, 16, 16, 3, 1, 1},
		{1, 3, 2, 7, 7, 7, 3, 1}, // kernel as big as the input
	}
	for _, tc := range cases {
		name := fmt.Sprintf("n%d_c%d-%d_%dx%d_k%d_p%d_d%d",
			tc.n, tc.cin, tc.cout, tc.h, tc.w, tc.kern, tc.pad, tc.dil)
		t.Run(name, func(t *testing.T) {
			x := tensor.RandNormal(tensor.NCHW(tc.n, tc.cin, tc.h, tc.w), 0, 1, rng)
			w := tensor.RandNormal(tensor.OIHW(tc.cout, tc.cin, tc.kern, tc.kern), 0, 0.3, rng)
			// A few exact zeros in the weights exercise the zero-skip paths.
			wd := w.Data()
			for i := 0; i < len(wd); i += 7 {
				wd[i] = 0
			}
			train := NewConv2D(1, tc.pad, tc.dil)
			inf := train.CloneForInference().(*Conv2D)
			want := train.Forward([]*tensor.Tensor{x, w})
			got := inf.Forward([]*tensor.Tensor{x, w})
			if !want.Shape().Equal(got.Shape()) {
				t.Fatalf("shape %v vs %v", got.Shape(), want.Shape())
			}
			for i, v := range want.Data() {
				if got.Data()[i] != v {
					t.Fatalf("element %d: direct %v, im2col+GEMM %v", i, got.Data()[i], v)
				}
			}
		})
	}
}

// TestDirectConvStridedFallback checks ineligible geometries (strided)
// still match through the inference fallback path.
func TestDirectConvStridedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.RandNormal(tensor.NCHW(2, 4, 16, 16), 0, 1, rng)
	w := tensor.RandNormal(tensor.OIHW(6, 4, 3, 3), 0, 0.3, rng)
	train := NewConv2D(2, 1, 1)
	inf := train.CloneForInference().(*Conv2D)
	want := train.Forward([]*tensor.Tensor{x, w})
	got := inf.Forward([]*tensor.Tensor{x, w})
	for i, v := range want.Data() {
		if got.Data()[i] != v {
			t.Fatalf("element %d differs on strided fallback", i)
		}
	}
}

// TestFusedConvBiasInferenceParity checks the fused conv+bias(+ReLU) op in
// inference mode against its training forward.
func TestFusedConvBiasInferenceParity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := tensor.RandNormal(tensor.NCHW(2, 3, 12, 12), 0, 1, rng)
	w := tensor.RandNormal(tensor.OIHW(5, 3, 3, 3), 0, 0.3, rng)
	b := tensor.RandNormal(tensor.Shape{5}, 0, 0.5, rng)
	for _, relu := range []bool{false, true} {
		train := NewFusedConvBias(1, 1, 1, relu)
		inf := train.CloneForInference().(*FusedConvBias)
		want := train.Forward([]*tensor.Tensor{x, w, b})
		got := inf.Forward([]*tensor.Tensor{x, w, b})
		for i, v := range want.Data() {
			if got.Data()[i] != v {
				t.Fatalf("relu=%v element %d differs", relu, i)
			}
		}
	}
}
