package nn

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// opCase pairs an op with valid input shapes, exercising the full graph.Op
// contract every layer must honour: OutShape agrees with Forward, costs are
// sane, and categories are within the paper's taxonomy.
type opCase struct {
	name   string
	op     graph.Op
	shapes []tensor.Shape
}

func contractCases() []opCase {
	return []opCase{
		{"conv2d", NewConv2D(1, 1, 1), []tensor.Shape{
			tensor.NCHW(1, 3, 8, 8), {4, 3, 3, 3}}},
		{"conv2d-strided", NewConv2D(2, 1, 1), []tensor.Shape{
			tensor.NCHW(1, 3, 8, 8), {4, 3, 3, 3}}},
		{"conv2d-atrous", NewConv2D(1, 4, 4), []tensor.Shape{
			tensor.NCHW(1, 2, 12, 12), {2, 2, 3, 3}}},
		{"conv2d_bias", NewFusedConvBias(1, 1, 1, false), []tensor.Shape{
			tensor.NCHW(1, 3, 8, 8), {4, 3, 3, 3}, {4}}},
		{"conv2d_bias_relu", NewFusedConvBias(1, 1, 1, true), []tensor.Shape{
			tensor.NCHW(1, 3, 8, 8), {4, 3, 3, 3}, {4}}},
		{"deconv2d", NewDeconv2DOutPad(2, 1, 1), []tensor.Shape{
			tensor.NCHW(1, 4, 6, 6), {4, 2, 3, 3}}},
		{"maxpool", NewMaxPool2D(3, 2, 1), []tensor.Shape{
			tensor.NCHW(1, 3, 8, 8)}},
		{"global_avg_pool", GlobalAvgPool{}, []tensor.Shape{
			tensor.NCHW(2, 3, 4, 4)}},
		{"batchnorm", NewBatchNorm(1e-5, 0.1), []tensor.Shape{
			tensor.NCHW(2, 3, 4, 4), {3}, {3}}},
		{"relu", ReLU{}, []tensor.Shape{tensor.NCHW(1, 2, 4, 4)}},
		{"add", Add{}, []tensor.Shape{tensor.NCHW(1, 2, 4, 4), tensor.NCHW(1, 2, 4, 4)}},
		{"dropout", NewDropout(0.5, 3), []tensor.Shape{tensor.NCHW(1, 2, 4, 4)}},
		{"concat", Concat{}, []tensor.Shape{
			tensor.NCHW(1, 2, 4, 4), tensor.NCHW(1, 3, 4, 4)}},
		{"identity", Identity{}, []tensor.Shape{tensor.NCHW(1, 2, 4, 4)}},
		{"layout_roundtrip", LayoutRoundTrip{}, []tensor.Shape{tensor.NCHW(1, 3, 4, 5)}},
	}
}

func TestOpContract(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range contractCases() {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.op.OutShape(tc.shapes)
			if err != nil {
				t.Fatalf("OutShape(%v): %v", tc.shapes, err)
			}
			inputs := make([]*tensor.Tensor, len(tc.shapes))
			for i, s := range tc.shapes {
				inputs[i] = tensor.RandNormal(s, 0, 1, rng)
			}
			fwd := tc.op.Forward(inputs)
			if !fwd.Shape().Equal(out) {
				t.Fatalf("Forward shape %v != OutShape %v", fwd.Shape(), out)
			}
			gradOut := tensor.Ones(out)
			grads := tc.op.Backward(inputs, fwd, gradOut)
			if len(grads) != len(inputs) {
				t.Fatalf("Backward returned %d gradients for %d inputs", len(grads), len(inputs))
			}
			for i, g := range grads {
				if g != nil && !g.Shape().Equal(tc.shapes[i]) {
					t.Errorf("grad %d shape %v != input %v", i, g.Shape(), tc.shapes[i])
				}
			}
			// Cost contract: finite, non-negative, FP16 traffic below FP32.
			for _, eb := range []int{4, 2} {
				fc := tc.op.FwdCost(tc.shapes, out, eb)
				bc := tc.op.BwdCost(tc.shapes, out, eb)
				if fc.FLOPs < 0 || fc.Bytes <= 0 || bc.FLOPs < 0 || bc.Bytes <= 0 {
					t.Errorf("degenerate costs fwd=%+v bwd=%+v (eb=%d)", fc, bc, eb)
				}
			}
			f32 := tc.op.FwdCost(tc.shapes, out, 4)
			f16 := tc.op.FwdCost(tc.shapes, out, 2)
			if f16.Bytes > f32.Bytes {
				t.Errorf("FP16 traffic %v exceeds FP32 %v", f16.Bytes, f32.Bytes)
			}
			fcat, bcat := tc.op.Categories()
			for _, cat := range []graph.Category{fcat, bcat} {
				if int(cat) < 0 || int(cat) >= graph.NumCategories {
					t.Errorf("category %d outside taxonomy", cat)
				}
			}
			if tc.op.Name() == "" {
				t.Error("empty op name")
			}
		})
	}
}

func TestConvCostMatchesPaperFormula(t *testing.T) {
	// The Section VI worked example: 3×3 direct convolution, 1152×768,
	// 48→32 channels, batch 2 → 48.9 GFLOPs.
	conv := NewConv2D(1, 1, 1)
	in := []tensor.Shape{tensor.NCHW(2, 48, 768, 1152), {32, 48, 3, 3}}
	out, err := conv.OutShape(in)
	if err != nil {
		t.Fatal(err)
	}
	got := conv.FwdCost(in, out, 4).FLOPs
	want := 3.0 * 3 * 1152 * 768 * 48 * 32 * 2 * 2
	if got != want {
		t.Fatalf("conv FLOPs %.4g, want %.4g (paper's 48.9e9)", got, want)
	}
	// Backward ≈ 2× forward (backward-data + backward-filter GEMMs).
	if bwd := conv.BwdCost(in, out, 4).FLOPs; bwd != 2*want {
		t.Fatalf("backward FLOPs %.4g, want %.4g", bwd, 2*want)
	}
}

func TestOutShapeRejections(t *testing.T) {
	bad := []struct {
		name   string
		op     graph.Op
		shapes []tensor.Shape
	}{
		{"conv2d-one-input", NewConv2D(1, 1, 1), []tensor.Shape{tensor.NCHW(1, 3, 8, 8)}},
		{"conv2d-rank3", NewConv2D(1, 1, 1), []tensor.Shape{{3, 8, 8}, {4, 3, 3, 3}}},
		{"conv2d-channel-mismatch", NewConv2D(1, 1, 1), []tensor.Shape{
			tensor.NCHW(1, 3, 8, 8), {4, 5, 3, 3}}},
		{"conv2d-too-small", NewConv2D(1, 0, 1), []tensor.Shape{
			tensor.NCHW(1, 3, 2, 2), {4, 3, 5, 5}}},
		{"deconv2d-one-input", NewDeconv2DOutPad(2, 1, 0), []tensor.Shape{tensor.NCHW(1, 4, 6, 6)}},
		{"deconv2d-rank", NewDeconv2DOutPad(2, 1, 0), []tensor.Shape{{4, 6, 6}, {4, 2, 3, 3}}},
		{"deconv2d-channel-mismatch", NewDeconv2DOutPad(2, 1, 0), []tensor.Shape{
			tensor.NCHW(1, 4, 6, 6), {5, 2, 3, 3}}},
		{"add-mismatch", Add{}, []tensor.Shape{tensor.NCHW(1, 2, 4, 4), tensor.NCHW(1, 3, 4, 4)}},
		{"concat-one-input", Concat{}, []tensor.Shape{tensor.NCHW(1, 2, 4, 4)}},
		{"concat-spatial-mismatch", Concat{}, []tensor.Shape{
			tensor.NCHW(1, 2, 4, 4), tensor.NCHW(1, 2, 5, 4)}},
		{"relu-two-inputs", ReLU{}, []tensor.Shape{tensor.NCHW(1, 2, 4, 4), tensor.NCHW(1, 2, 4, 4)}},
		{"layout-rank3", LayoutRoundTrip{}, []tensor.Shape{{2, 4, 4}}},
		{"batchnorm-bad-params", NewBatchNorm(1e-5, 0.1), []tensor.Shape{
			tensor.NCHW(1, 3, 4, 4), {4}, {3}}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.op.OutShape(tc.shapes); err == nil {
				t.Errorf("OutShape(%v) accepted invalid inputs", tc.shapes)
			}
		})
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"conv-stride0", func() { NewConv2D(0, 1, 1) }},
		{"conv-negpad", func() { NewConv2D(1, -1, 1) }},
		{"conv-dil0", func() { NewConv2D(1, 1, 0) }},
		{"deconv-stride0", func() { NewDeconv2DOutPad(0, 0, 0) }},
		{"deconv-outpad-ge-stride", func() { NewDeconv2DOutPad(2, 1, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestLayoutRoundTripIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandNormal(tensor.NCHW(2, 3, 5, 7), 0, 1, rng)
	out := LayoutRoundTrip{}.Forward([]*tensor.Tensor{x})
	for i, v := range x.Data() {
		if out.Data()[i] != v {
			t.Fatalf("layout round trip altered element %d", i)
		}
	}
	g := LayoutRoundTrip{}.Backward([]*tensor.Tensor{x}, out, x)
	for i, v := range x.Data() {
		if g[0].Data()[i] != v {
			t.Fatalf("layout round trip gradient altered element %d", i)
		}
	}
}

// TestBatchNormEvalBackwardRecomputesStats guards the saved-statistics
// cache: a backward pass following an eval-mode forward must not reuse
// statistics from an earlier training batch.
func TestBatchNormEvalBackwardRecomputesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bn := NewBatchNorm(1e-5, 0.1)
	gamma := tensor.Ones(tensor.Shape{3})
	beta := tensor.Zeros(tensor.Shape{3})

	// Training forward on batch A populates the saved statistics.
	xA := tensor.RandNormal(tensor.NCHW(2, 3, 4, 4), 0, 1, rng)
	bn.Forward([]*tensor.Tensor{xA, gamma, beta})

	// Eval forward on a very different batch B, then backward through it.
	xB := tensor.RandNormal(tensor.NCHW(2, 3, 4, 4), 5, 2, rng)
	bn.Train = false
	outB := bn.Forward([]*tensor.Tensor{xB, gamma, beta})
	gradOut := tensor.Ones(outB.Shape())
	got := bn.Backward([]*tensor.Tensor{xB, gamma, beta}, outB, gradOut)

	// Reference: a fresh instance with no saved state (always recomputes).
	ref := NewBatchNorm(1e-5, 0.1)
	ref.Train = false
	refOut := ref.Forward([]*tensor.Tensor{xB, gamma, beta})
	want := ref.Backward([]*tensor.Tensor{xB, gamma, beta}, refOut, gradOut)

	for gi := range want {
		for i := range want[gi].Data() {
			if got[gi].Data()[i] != want[gi].Data()[i] {
				t.Fatalf("grad %d elem %d: %g, want %g (stale saved stats used)",
					gi, i, got[gi].Data()[i], want[gi].Data()[i])
			}
		}
	}
}
