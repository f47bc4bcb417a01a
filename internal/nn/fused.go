package nn

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// FusedConvBias is a 2-D convolution with the per-channel bias add — and
// optionally the ReLU — fused into the same kernel: the epilogue runs over
// each batch element's output tile right after its GEMM, while the tile is
// still cache-hot, instead of as separate full-tensor passes. This is the
// conv+bias+activation fusion cuDNN exposes (and the paper's runtime relies
// on); here it removes two graph nodes and two DRAM round-trips per layer.
//
// Inputs: x [N,Cin,H,W], w [Cout,Cin,KH,KW], bias [Cout].
type FusedConvBias struct {
	Stride, Pad, Dilation int
	// ReLU applies max(·, 0) after the bias in the same pass.
	ReLU bool

	// convOp is the inner convolution: its geometry, and for an inference
	// clone the Inference flag and the INT8 weights MarkInt8 installs.
	convOp *Conv2D
}

// NewFusedConvBias returns a fused conv+bias op, with fused ReLU if relu.
func NewFusedConvBias(stride, pad, dilation int, relu bool) *FusedConvBias {
	if stride < 1 || dilation < 1 || pad < 0 {
		panic("nn: invalid FusedConvBias geometry")
	}
	return &FusedConvBias{Stride: stride, Pad: pad, Dilation: dilation, ReLU: relu,
		convOp: &Conv2D{Stride: stride, Pad: pad, Dilation: dilation}}
}

// Name implements graph.Op.
func (c *FusedConvBias) Name() string {
	if c.ReLU {
		return "conv2d_bias_relu"
	}
	return "conv2d_bias"
}

// OutShape implements graph.Op.
func (c *FusedConvBias) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("%s wants 3 inputs (x, w, bias), got %d", c.Name(), len(in))
	}
	w, b := in[1], in[2]
	if b.Rank() != 1 || (w.Rank() == 4 && b[0] != w[0]) {
		return nil, fmt.Errorf("%s bias shape %v incompatible with weights %v", c.Name(), b, w)
	}
	return c.convOp.OutShape(in[:2])
}

// Forward implements graph.Op.
func (c *FusedConvBias) Forward(in []*tensor.Tensor) *tensor.Tensor {
	return c.ForwardScratch(in, heapWS)
}

// ForwardScratch implements graph.ScratchOp: one convolution per batch
// element, with the bias (and ReLU) epilogue applied to the fresh tile.
func (c *FusedConvBias) ForwardScratch(in []*tensor.Tensor, wsp *tensor.Workspace) *tensor.Tensor {
	x, w, bias := in[0], in[1], in[2]
	xs, ws := x.Shape(), w.Shape()
	n, cin := xs[0], xs[1]
	cout := ws[0]
	cv := c.convOp
	g := cv.geom(xs, ws)
	oh, ow := g.OutH(), g.OutW()
	cols := oh * ow
	k := cin * g.KH * g.KW

	out := wsp.NewTensorUninit(tensor.NCHW(n, cout, oh, ow))
	imSize := cin * g.InH * g.InW
	bd := bias.Data()
	pointwise := is1x1(g)
	int8q := cv.Inference && cv.qw != nil
	var infCol []float32
	var bq []int8
	if int8q {
		// Quantized INT8 kernel (see int8.go): panel scratch plus the int8
		// code buffer; the bias/ReLU epilogue below is shared with every
		// other path.
		if !pointwise {
			infCol = wsp.GetF32(k * cols)
			defer wsp.PutF32(infCol)
		}
		bq = wsp.GetI8(k * cols)
		defer wsp.PutI8(bq)
	}
	for b := 0; b < n; b++ {
		tile := out.Data()[b*cout*cols : (b+1)*cout*cols]
		xb := x.Data()[b*imSize : (b+1)*imSize]
		switch {
		case int8q:
			cv.int8Tile(xb, cin, g, tile, cout, infCol, bq)
		case pointwise:
			// The input already is the [Cin, H·W] matrix.
			tensor.Gemm(false, false, cout, cols, k, 1, w.Data(), k, xb, cols, 0, tile, cols)
		default:
			tensor.ConvGemm(w.Data(), cout, xb, cin, g, tile, wsp)
		}
		// Fused epilogue over the cache-hot tile.
		for ch := 0; ch < cout; ch++ {
			bv := bd[ch]
			row := tile[ch*cols : (ch+1)*cols]
			if c.ReLU {
				for i, v := range row {
					v += bv
					if v < 0 {
						v = 0
					}
					row[i] = v
				}
			} else {
				for i := range row {
					row[i] += bv
				}
			}
		}
	}
	return out
}

// Backward implements graph.Op.
func (c *FusedConvBias) Backward(in []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	return c.BackwardScratch(in, out, gradOut, heapWS)
}

// BackwardScratch implements graph.ScratchOp. With fused ReLU the incoming
// gradient is masked by (out > 0) — valid because bias shifts make out
// exactly the post-ReLU activation — then the bias gradient (per-channel
// sum) and the usual conv gradients are computed from the masked gradient.
func (c *FusedConvBias) BackwardScratch(in []*tensor.Tensor, out, gradOut *tensor.Tensor, wsp *tensor.Workspace) []*tensor.Tensor {
	x, w := in[0], in[1]
	xs, ws := x.Shape(), w.Shape()
	cout := ws[0]
	n := xs[0]
	hw := gradOut.NumElements() / (n * cout)

	g := gradOut
	var masked *tensor.Tensor
	if c.ReLU {
		masked = wsp.NewTensorUninit(gradOut.Shape())
		od, gd, md := out.Data(), gradOut.Data(), masked.Data()
		for i, v := range od {
			if v > 0 {
				md[i] = gd[i]
			} else {
				md[i] = 0
			}
		}
		g = masked
	}

	// Bias gradient: per-channel sum over batch and spatial dims.
	gradB := wsp.NewTensorUninit(tensor.Shape{cout})
	gd, bd := g.Data(), gradB.Data()
	for ch := 0; ch < cout; ch++ {
		var s float64
		for img := 0; img < n; img++ {
			base := (img*cout + ch) * hw
			for _, v := range gd[base : base+hw] {
				s += float64(v)
			}
		}
		bd[ch] = float32(s)
	}

	convGrads := c.convOp.BackwardScratch(in[:2], out, g, wsp)
	if masked != nil {
		wsp.Release(masked)
	}
	return []*tensor.Tensor{convGrads[0], convGrads[1], gradB}
}

// FwdCost implements graph.Op: the convolution GEMM plus the fused
// pointwise epilogue, billed as one kernel (total FLOPs are conserved
// relative to the unfused conv→bias→relu chain).
func (c *FusedConvBias) FwdCost(in []tensor.Shape, out tensor.Shape, elemBytes int) graph.Cost {
	conv := c.convOp.FwdCost(in[:2], out, elemBytes)
	epilogue := 1.0
	if c.ReLU {
		epilogue = 2
	}
	return conv.Add(graph.Cost{FLOPs: epilogue * float64(out.NumElements())})
}

// BwdCost implements graph.Op.
func (c *FusedConvBias) BwdCost(in []tensor.Shape, out tensor.Shape, elemBytes int) graph.Cost {
	conv := c.convOp.BwdCost(in[:2], out, elemBytes)
	return conv.Add(graph.Cost{
		FLOPs: 2 * float64(out.NumElements()),
		Bytes: float64(out.NumElements()) * float64(elemBytes),
	})
}

// Categories implements graph.Op: the fused kernel is convolution-bound.
func (c *FusedConvBias) Categories() (graph.Category, graph.Category) {
	return graph.CatForwardConv, graph.CatBackwardConv
}
