package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/loss"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// sumAll is a trivial scalar-reduction op so any network output can be
// turned into a differentiable scalar for gradient checking.
type sumAll struct{}

func (sumAll) Name() string { return "sum_all" }
func (sumAll) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	return tensor.Shape{1}, nil
}
func (sumAll) Forward(in []*tensor.Tensor) *tensor.Tensor {
	out := tensor.New(tensor.Shape{1})
	// Weighted sum with alternating signs so gradients are non-uniform.
	var s float64
	for i, v := range in[0].Data() {
		w := 1.0 + 0.25*float64(i%7)
		s += w * float64(v)
	}
	out.Data()[0] = float32(s)
	return out
}
func (sumAll) Backward(in []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	g := tensor.New(in[0].Shape())
	for i := range g.Data() {
		g.Data()[i] = gradOut.Data()[0] * float32(1.0+0.25*float64(i%7))
	}
	return []*tensor.Tensor{g}
}
func (sumAll) FwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost { return graph.Cost{} }
func (sumAll) BwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost { return graph.Cost{} }
func (sumAll) Categories() (graph.Category, graph.Category) {
	return graph.CatForwardPointwise, graph.CatBackwardPointwise
}

// checkGrads numerically validates the analytic gradient of every checked
// tensor (inputs and params) of a single-op-or-subgraph builder.
//
// build constructs the graph and returns the loss root plus the nodes whose
// gradients should be verified; feeds supplies input tensors.
func checkGrads(t *testing.T, build func(g *graph.Graph) (root *graph.Node, check []*graph.Node),
	feeds func() map[*graph.Node]*tensor.Tensor) {
	t.Helper()

	g := graph.New()
	root, check := build(g)
	fd := feeds()

	run := func() float64 {
		ex := graph.NewExecutor(g, graph.FP32, 1)
		if err := ex.Forward(fd); err != nil {
			t.Fatalf("forward: %v", err)
		}
		return float64(ex.Value(root).Data()[0])
	}

	ex := graph.NewExecutor(g, graph.FP32, 1)
	if err := ex.Forward(fd); err != nil {
		t.Fatalf("forward: %v", err)
	}
	if err := ex.Backward(root); err != nil {
		t.Fatalf("backward: %v", err)
	}

	const eps = 1e-2
	for _, node := range check {
		analytic := ex.Grad(node)
		if analytic == nil {
			t.Fatalf("no gradient for node %q", node.Label)
		}
		var data []float32
		if node.Kind == graph.KindParam {
			data = node.Value.Data()
		} else {
			data = fd[node].Data()
		}
		// Spot-check a deterministic subset of elements (full check on
		// small tensors, sampled on larger ones).
		step := 1
		if len(data) > 64 {
			step = len(data) / 48
		}
		for i := 0; i < len(data); i += step {
			orig := data[i]
			data[i] = orig + eps
			up := run()
			data[i] = orig - eps
			down := run()
			data[i] = orig
			numeric := (up - down) / (2 * eps)
			got := float64(analytic.Data()[i])
			diff := math.Abs(numeric - got)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(got)))
			if diff/scale > 0.02 {
				t.Fatalf("node %q elem %d: analytic %g vs numeric %g", node.Label, i, got, numeric)
			}
		}
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := tensor.RandNormal(tensor.NCHW(2, 3, 5, 6), 0, 1, rng)
	w := tensor.RandNormal(tensor.OIHW(4, 3, 3, 3), 0, 0.5, rng)
	var xn *graph.Node
	checkGrads(t,
		func(g *graph.Graph) (*graph.Node, []*graph.Node) {
			xn = g.Input("x", x.Shape())
			wn := g.Param("w", w)
			y := g.Apply(nn.NewConv2D(1, 1, 1), xn, wn)
			return g.Apply(sumAll{}, y), []*graph.Node{xn, wn}
		},
		func() map[*graph.Node]*tensor.Tensor {
			return map[*graph.Node]*tensor.Tensor{xn: x}
		})
}

func TestConv2DStridedDilatedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Strided case.
	x := tensor.RandNormal(tensor.NCHW(1, 2, 8, 8), 0, 1, rng)
	w := tensor.RandNormal(tensor.OIHW(3, 2, 3, 3), 0, 0.5, rng)
	var xn *graph.Node
	checkGrads(t,
		func(g *graph.Graph) (*graph.Node, []*graph.Node) {
			xn = g.Input("x", x.Shape())
			wn := g.Param("w", w)
			y := g.Apply(nn.NewConv2D(2, 1, 1), xn, wn)
			return g.Apply(sumAll{}, y), []*graph.Node{xn, wn}
		},
		func() map[*graph.Node]*tensor.Tensor {
			return map[*graph.Node]*tensor.Tensor{xn: x}
		})

	// Atrous (dilated) case, dilation 2 with pad 2 keeps spatial size.
	x2 := tensor.RandNormal(tensor.NCHW(1, 2, 7, 7), 0, 1, rng)
	w2 := tensor.RandNormal(tensor.OIHW(2, 2, 3, 3), 0, 0.5, rng)
	var xn2 *graph.Node
	checkGrads(t,
		func(g *graph.Graph) (*graph.Node, []*graph.Node) {
			xn2 = g.Input("x", x2.Shape())
			wn := g.Param("w", w2)
			y := g.Apply(nn.NewConv2D(1, 2, 2), xn2, wn)
			return g.Apply(sumAll{}, y), []*graph.Node{xn2, wn}
		},
		func() map[*graph.Node]*tensor.Tensor {
			return map[*graph.Node]*tensor.Tensor{xn2: x2}
		})
}

func TestDeconv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := tensor.RandNormal(tensor.NCHW(1, 3, 4, 4), 0, 1, rng)
	// Weight layout [Cin, Cout, KH, KW].
	w := tensor.RandNormal(tensor.Shape{3, 2, 3, 3}, 0, 0.5, rng)
	var xn *graph.Node
	checkGrads(t,
		func(g *graph.Graph) (*graph.Node, []*graph.Node) {
			xn = g.Input("x", x.Shape())
			wn := g.Param("w", w)
			y := g.Apply(nn.NewDeconv2DOutPad(2, 1, 0), xn, wn) // 4→7 upsample
			return g.Apply(sumAll{}, y), []*graph.Node{xn, wn}
		},
		func() map[*graph.Node]*tensor.Tensor {
			return map[*graph.Node]*tensor.Tensor{xn: x}
		})
}

func TestDeconvUpsamplesBy2(t *testing.T) {
	// "3×3 deconv, /2" with pad 1 must exactly double an even input when
	// sized as (H-1)*2 + 3 - 2 = 2H-1... the paper's decoder uses output
	// padding semantics; ours gives 2H-1 with pad 1 and 2H with pad 0 k=2.
	d := nn.NewDeconv2DOutPad(2, 1, 0)
	out, err := d.OutShape([]tensor.Shape{tensor.NCHW(1, 8, 10, 12), tensor.Shape{8, 4, 3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if out[2] != 19 || out[3] != 23 {
		t.Fatalf("deconv out = %v", out)
	}
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := tensor.RandNormal(tensor.NCHW(2, 2, 6, 6), 0, 1, rng)
	var xn *graph.Node
	checkGrads(t,
		func(g *graph.Graph) (*graph.Node, []*graph.Node) {
			xn = g.Input("x", x.Shape())
			y := g.Apply(nn.NewMaxPool2D(3, 2, 1), xn)
			return g.Apply(sumAll{}, y), []*graph.Node{xn}
		},
		func() map[*graph.Node]*tensor.Tensor {
			return map[*graph.Node]*tensor.Tensor{xn: x}
		})
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := tensor.RandNormal(tensor.NCHW(2, 3, 4, 4), 0, 2, rng)
	gamma := tensor.RandUniform(tensor.Shape{3}, 0.5, 1.5, rng)
	beta := tensor.RandNormal(tensor.Shape{3}, 0, 0.3, rng)
	var xn *graph.Node
	checkGrads(t,
		func(g *graph.Graph) (*graph.Node, []*graph.Node) {
			xn = g.Input("x", x.Shape())
			gn := g.Param("gamma", gamma)
			bn := g.Param("beta", beta)
			y := g.Apply(nn.NewBatchNorm(1e-5, 0.1), xn, gn, bn)
			return g.Apply(sumAll{}, y), []*graph.Node{xn, gn, bn}
		},
		func() map[*graph.Node]*tensor.Tensor {
			return map[*graph.Node]*tensor.Tensor{xn: x}
		})
}

func TestPointwiseOpGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := tensor.RandNormal(tensor.NCHW(1, 2, 3, 4), 0, 1, rng)
	b := tensor.RandNormal(tensor.Shape{2}, 0, 1, rng)
	y2 := tensor.RandNormal(tensor.NCHW(1, 2, 3, 4), 0, 1, rng)
	// A per-channel bias, broadcast to x's shape, keeps the ReLU inputs
	// away from the kink where central differences are undefined.
	bias := tensor.New(x.Shape())
	for i := range bias.Data() {
		bias.Data()[i] = b.Data()[i/12]
	}
	var xn, yn *graph.Node
	checkGrads(t,
		func(g *graph.Graph) (*graph.Node, []*graph.Node) {
			xn = g.Input("x", x.Shape())
			yn = g.Input("y", y2.Shape())
			bn := g.Param("b", bias)
			h := g.Apply(nn.Add{}, xn, bn)
			h = g.Apply(nn.ReLU{}, h)
			h = g.Apply(nn.Add{}, h, yn)
			return g.Apply(sumAll{}, h), []*graph.Node{xn, yn, bn}
		},
		func() map[*graph.Node]*tensor.Tensor {
			return map[*graph.Node]*tensor.Tensor{xn: x, yn: y2}
		})
}

func TestConcatGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := tensor.RandNormal(tensor.NCHW(1, 2, 3, 3), 0, 1, rng)
	b := tensor.RandNormal(tensor.NCHW(1, 3, 3, 3), 0, 1, rng)
	var an, bn *graph.Node
	checkGrads(t,
		func(g *graph.Graph) (*graph.Node, []*graph.Node) {
			an = g.Input("a", a.Shape())
			bn = g.Input("b", b.Shape())
			y := g.Apply(nn.Concat{}, an, bn)
			return g.Apply(sumAll{}, y), []*graph.Node{an, bn}
		},
		func() map[*graph.Node]*tensor.Tensor {
			return map[*graph.Node]*tensor.Tensor{an: a, bn: b}
		})
}

func TestGlobalPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := tensor.RandNormal(tensor.NCHW(1, 2, 3, 3), 0, 1, rng)
	var xn *graph.Node
	checkGrads(t,
		func(g *graph.Graph) (*graph.Node, []*graph.Node) {
			xn = g.Input("x", x.Shape())
			y := g.Apply(nn.GlobalAvgPool{}, xn)
			return g.Apply(sumAll{}, y), []*graph.Node{xn}
		},
		func() map[*graph.Node]*tensor.Tensor {
			return map[*graph.Node]*tensor.Tensor{xn: x}
		})
}

func TestWeightedSoftmaxCEGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	logits := tensor.RandNormal(tensor.NCHW(2, 3, 4, 4), 0, 1, rng)
	labels := tensor.New(tensor.Shape{2, 4, 4})
	for i := range labels.Data() {
		labels.Data()[i] = float32(rng.Intn(3))
	}
	weights := tensor.RandUniform(tensor.Shape{2, 4, 4}, 0.5, 2, rng)
	var ln, lbn, wn *graph.Node
	checkGrads(t,
		func(g *graph.Graph) (*graph.Node, []*graph.Node) {
			ln = g.Input("logits", logits.Shape())
			lbn = g.Input("labels", labels.Shape())
			wn = g.Input("weights", weights.Shape())
			return g.Apply(loss.WeightedSoftmaxCE{}, ln, lbn, wn), []*graph.Node{ln}
		},
		func() map[*graph.Node]*tensor.Tensor {
			return map[*graph.Node]*tensor.Tensor{ln: logits, lbn: labels, wn: weights}
		})
}

func TestSmallNetworkEndToEndGradients(t *testing.T) {
	// A miniature conv→BN→ReLU→conv→loss network: checks gradient flow
	// through a realistic composition, including the param-only path.
	rng := rand.New(rand.NewSource(19))
	x := tensor.RandNormal(tensor.NCHW(1, 2, 6, 6), 0, 1, rng)
	labels := tensor.New(tensor.Shape{1, 6, 6})
	for i := range labels.Data() {
		labels.Data()[i] = float32(rng.Intn(3))
	}
	weights := tensor.Ones(tensor.Shape{1, 6, 6})
	w1 := tensor.HeInit(tensor.OIHW(4, 2, 3, 3), rng)
	gamma := tensor.Ones(tensor.Shape{4})
	beta := tensor.Zeros(tensor.Shape{4})
	w2 := tensor.HeInit(tensor.OIHW(3, 4, 1, 1), rng)

	var xn, lbn, wtn *graph.Node
	checkGrads(t,
		func(g *graph.Graph) (*graph.Node, []*graph.Node) {
			xn = g.Input("x", x.Shape())
			lbn = g.Input("labels", labels.Shape())
			wtn = g.Input("weights", weights.Shape())
			p1 := g.Param("w1", w1)
			gn := g.Param("gamma", gamma)
			bn := g.Param("beta", beta)
			p2 := g.Param("w2", w2)
			h := g.Apply(nn.NewConv2D(1, 1, 1), xn, p1)
			h = g.Apply(nn.NewBatchNorm(1e-5, 0.1), h, gn, bn)
			h = g.Apply(nn.ReLU{}, h)
			logits := g.Apply(nn.NewConv2D(1, 0, 1), h, p2)
			l := g.Apply(loss.WeightedSoftmaxCE{}, logits, lbn, wtn)
			return l, []*graph.Node{p1, p2, gn, bn}
		},
		func() map[*graph.Node]*tensor.Tensor {
			return map[*graph.Node]*tensor.Tensor{xn: x, lbn: labels, wtn: weights}
		})
}
