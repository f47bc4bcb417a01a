package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestFusedConvBiasMatchesUnfused verifies the fused conv+bias(+ReLU)
// kernel against the unfused conv→bias_add(→relu) chain, forward and
// backward, for both ReLU modes and for 1×1 and 3×3 geometries.
// biasAdd is the unfused bias step: out[n, c] = x[n, c] + b[c] over an
// NCHW activation. Its gradient passes gradOut through to x unchanged and
// reduces it over every axis but channels for b (biasGrad).
func biasAdd(x, b *tensor.Tensor) *tensor.Tensor {
	s := x.Shape()
	hw := s[2] * s[3]
	out := x.Clone()
	for i, v := range out.Data() {
		out.Data()[i] = v + b.Data()[i/hw%s[1]]
	}
	return out
}

func biasGrad(gradOut *tensor.Tensor) *tensor.Tensor {
	s := gradOut.Shape()
	hw := s[2] * s[3]
	sums := make([]float64, s[1])
	for i, v := range gradOut.Data() {
		sums[i/hw%s[1]] += float64(v)
	}
	gb := tensor.New(tensor.Shape{s[1]})
	for c, v := range sums {
		gb.Data()[c] = float32(v)
	}
	return gb
}

func TestFusedConvBiasMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct {
		name           string
		k, stride, pad int
		relu           bool
	}{
		{"3x3", 3, 1, 1, false},
		{"3x3-relu", 3, 1, 1, true},
		{"1x1", 1, 1, 0, false},
		{"1x1-relu", 1, 1, 0, true},
		{"strided", 3, 2, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := tensor.RandNormal(tensor.NCHW(2, 3, 6, 6), 0, 1, rng)
			w := tensor.RandNormal(tensor.OIHW(4, 3, tc.k, tc.k), 0, 0.5, rng)
			bias := tensor.RandNormal(tensor.Shape{4}, 0, 0.5, rng)

			fused := nn.NewFusedConvBias(tc.stride, tc.pad, 1, tc.relu)
			conv := nn.NewConv2D(tc.stride, tc.pad, 1)

			fout := fused.Forward([]*tensor.Tensor{x, w, bias})
			ref := biasAdd(conv.Forward([]*tensor.Tensor{x, w}), bias)
			if tc.relu {
				ref = nn.ReLU{}.Forward([]*tensor.Tensor{ref})
			}
			if !fout.Shape().Equal(ref.Shape()) {
				t.Fatalf("shape %v != %v", fout.Shape(), ref.Shape())
			}
			for i := range ref.Data() {
				if diff := math.Abs(float64(fout.Data()[i] - ref.Data()[i])); diff > 1e-4 {
					t.Fatalf("fwd elem %d: fused %g, ref %g", i, fout.Data()[i], ref.Data()[i])
				}
			}

			// Backward against the op-by-op chain (conv and ReLU are
			// independently grad-checked; the bias step is written out in
			// biasAdd), with a non-uniform upstream gradient.
			gradOut := tensor.RandNormal(ref.Shape(), 0, 1, rng)
			fgrads := fused.Backward([]*tensor.Tensor{x, w, bias}, fout, gradOut)

			h1 := conv.Forward([]*tensor.Tensor{x, w})
			h2 := biasAdd(h1, bias)
			g := gradOut
			if tc.relu {
				out := nn.ReLU{}.Forward([]*tensor.Tensor{h2})
				g = nn.ReLU{}.Backward([]*tensor.Tensor{h2}, out, gradOut)[0]
			}
			cgrads := conv.Backward([]*tensor.Tensor{x, w}, h1, g)

			refGrads := []*tensor.Tensor{cgrads[0], cgrads[1], biasGrad(g)}
			names := []string{"x", "w", "bias"}
			for gi, rg := range refGrads {
				fg := fgrads[gi]
				for i := range rg.Data() {
					diff := math.Abs(float64(fg.Data()[i] - rg.Data()[i]))
					if diff > 1e-3*(1+math.Abs(float64(rg.Data()[i]))) {
						t.Fatalf("bwd grad %s elem %d: fused %g, ref %g",
							names[gi], i, fg.Data()[i], rg.Data()[i])
					}
				}
			}
		})
	}
}

// TestFusedConvBiasGradients numerically checks the fused kernel's
// gradients for x, w, and bias in both ReLU modes. The ReLU case uses a
// large positive bias and small weights so no pre-activation sits near the
// kink (central differences are undefined there); kink masking itself is
// covered exactly by TestFusedConvBiasMatchesUnfused.
func TestFusedConvBiasGradients(t *testing.T) {
	for _, relu := range []bool{false, true} {
		rng := rand.New(rand.NewSource(22))
		wStd, biasMean := 0.5, 0.0
		if relu {
			wStd, biasMean = 0.05, 3.0
		}
		x := tensor.RandNormal(tensor.NCHW(1, 2, 5, 5), 0, 1, rng)
		w := tensor.RandNormal(tensor.OIHW(3, 2, 3, 3), 0, wStd, rng)
		bias := tensor.RandNormal(tensor.Shape{3}, biasMean, 0.1, rng)
		var xn *graph.Node
		checkGrads(t,
			func(g *graph.Graph) (*graph.Node, []*graph.Node) {
				xn = g.Input("x", x.Shape())
				wn := g.Param("w", w)
				bn := g.Param("b", bias)
				y := g.Apply(nn.NewFusedConvBias(1, 1, 1, relu), xn, wn, bn)
				return g.Apply(sumAll{}, y), []*graph.Node{xn, wn, bn}
			},
			func() map[*graph.Node]*tensor.Tensor {
				return map[*graph.Node]*tensor.Tensor{xn: x}
			})
	}
}
