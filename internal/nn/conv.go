// Package nn implements the differentiable operations the paper's networks
// are assembled from: dense, strided, dilated ("atrous") and transposed
// convolutions, pooling, batch normalization, pointwise activations,
// dropout, and tensor plumbing (concat, bias). Every op implements
// graph.Op, so networks are dataflow graphs analyzable for FLOPs and
// differentiable by the graph executor.
//
// State caveat: Dropout, BatchNorm and MaxPool2D carry per-instance
// training state (mask, saved and running statistics, argmax index map),
// so a graph holding them must not be executed by two executors
// concurrently. The convolutions carry none: their backward passes read
// the forward input, not a saved panel. Data-parallel training replicates
// the graph per rank — exactly as the paper's Horovod replicates the
// TensorFlow graph — so this constraint is natural.
package nn

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW input with OIHW weights. Dilation
// implements the paper's atrous convolutions; stride implements
// downscaling. Inputs: x [N,Cin,H,W], w [Cout,Cin,KH,KW].
//
// The forward and the backward weight gradient run tensor.ConvGemm and
// tensor.ConvGemmWeightGrad, which pack their GEMM operands straight from
// the input image. For stride 1 the data gradient is a convolution too —
// the incoming gradient convolved with the 180°-rotated, channel-transposed
// kernel — and runs tensor.ConvGemm; strided convolutions scatter it with
// tensor.Col2im. The op keeps no state between forward and backward: one
// instance may be executed by several executors at once.
type Conv2D struct {
	Stride, Pad, Dilation int

	// Inference marks an instance cloned for serving, the only kind
	// MarkInt8 quantizes.
	Inference bool

	qw *int8Weights // set by MarkInt8: quantized-weight INT8 kernel (inference only)
}

// is1x1 reports whether the convolution is a pure pointwise (1×1, stride 1,
// no padding) channel mix, for which the im2col panel IS the input and both
// the expansion and the backward scatter can be skipped entirely.
func is1x1(g tensor.ConvGeom) bool {
	return g.KH == 1 && g.KW == 1 && g.StrideH == 1 && g.StrideW == 1 &&
		g.PadH == 0 && g.PadW == 0
}

// NewConv2D returns a dense stride-1 convolution with SAME-style padding
// computed by the caller.
func NewConv2D(stride, pad, dilation int) *Conv2D {
	if stride < 1 || dilation < 1 || pad < 0 {
		panic("nn: invalid Conv2D geometry")
	}
	return &Conv2D{Stride: stride, Pad: pad, Dilation: dilation}
}

// Name implements graph.Op.
func (c *Conv2D) Name() string { return "conv2d" }

func (c *Conv2D) geom(x, w tensor.Shape) tensor.ConvGeom {
	return tensor.ConvGeom{
		InH: x[2], InW: x[3],
		KH: w[2], KW: w[3],
		StrideH: c.Stride, StrideW: c.Stride,
		PadH: c.Pad, PadW: c.Pad,
		DilH: c.Dilation, DilW: c.Dilation,
	}
}

// OutShape implements graph.Op.
func (c *Conv2D) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("conv2d wants 2 inputs (x, w), got %d", len(in))
	}
	x, w := in[0], in[1]
	if x.Rank() != 4 || w.Rank() != 4 {
		return nil, fmt.Errorf("conv2d wants rank-4 inputs, got %v, %v", x, w)
	}
	if x[1] != w[1] {
		return nil, fmt.Errorf("conv2d channel mismatch: input %d, weight %d", x[1], w[1])
	}
	g := c.geom(x, w)
	oh, ow := g.OutH(), g.OutW()
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("conv2d output would be %dx%d", oh, ow)
	}
	return tensor.NCHW(x[0], w[0], oh, ow), nil
}

// Forward implements graph.Op as an implicit GEMM over the input image
// (the formulation the paper's FLOP audit found cuDNN using).
func (c *Conv2D) Forward(in []*tensor.Tensor) *tensor.Tensor {
	return c.ForwardScratch(in, heapWS)
}

// ForwardScratch implements graph.ScratchOp: the output tensor and the
// convolution's scratch come from the workspace instead of the heap.
func (c *Conv2D) ForwardScratch(in []*tensor.Tensor, wsp *tensor.Workspace) *tensor.Tensor {
	x, w := in[0], in[1]
	xs, ws := x.Shape(), w.Shape()
	n, cin := xs[0], xs[1]
	cout := ws[0]
	g := c.geom(xs, ws)
	oh, ow := g.OutH(), g.OutW()
	cols := oh * ow
	k := cin * g.KH * g.KW

	// Every output element is written by the beta=0 GEMM, so the tensor may
	// start uninitialized.
	out := wsp.NewTensorUninit(tensor.NCHW(n, cout, oh, ow))
	imSize := cin * g.InH * g.InW
	if c.Inference && c.qw != nil {
		// Quantized INT8 kernel (see int8.go); covers pointwise and expanded
		// geometries alike.
		var col []float32
		if !is1x1(g) {
			col = wsp.GetF32(k * cols)
			defer wsp.PutF32(col)
		}
		bq := wsp.GetI8(k * cols)
		defer wsp.PutI8(bq)
		for b := 0; b < n; b++ {
			c.int8Tile(x.Data()[b*imSize:(b+1)*imSize], cin, g,
				out.Data()[b*cout*cols:(b+1)*cout*cols], cout, col, bq)
		}
		return out
	}
	for b := 0; b < n; b++ {
		xb := x.Data()[b*imSize : (b+1)*imSize]
		ob := out.Data()[b*cout*cols : (b+1)*cout*cols]
		if is1x1(g) {
			// Pointwise: the input already is the [Cin, H·W] matrix.
			tensor.Gemm(false, false, cout, cols, k, 1, w.Data(), k, xb, cols, 0, ob, cols)
		} else {
			tensor.ConvGemm(w.Data(), cout, xb, cin, g, ob, wsp)
		}
	}
	return out
}

// Backward implements graph.Op, producing gradients for x and w.
func (c *Conv2D) Backward(in []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	return c.BackwardScratch(in, out, gradOut, heapWS)
}

// BackwardScratch implements graph.ScratchOp. The weight gradient always
// runs tensor.ConvGemmWeightGrad. The data gradient of a stride-1
// convolution runs tensor.ConvGemm over the incoming gradient (see
// dataGradGeom), writing every element of gradX with no per-image panel;
// strided convolutions, and padding past the kernel's reach, write a k ×
// cols panel by Gemm and scatter it by Col2im.
func (c *Conv2D) BackwardScratch(in []*tensor.Tensor, out, gradOut *tensor.Tensor, wsp *tensor.Workspace) []*tensor.Tensor {
	x, w := in[0], in[1]
	xs, ws := x.Shape(), w.Shape()
	n, cin := xs[0], xs[1]
	cout := ws[0]
	g := c.geom(xs, ws)
	oh, ow := g.OutH(), g.OutW()
	cols := oh * ow
	k := cin * g.KH * g.KW
	imSize := cin * g.InH * g.InW

	if is1x1(g) {
		// Pointwise fast path: no expansion, no scatter — the data gradient
		// GEMM writes straight into gradX.
		gradX := wsp.NewTensorUninit(xs) // fully written by the beta=0 GEMMs
		gradW := wsp.NewTensor(ws)       // zeroed: beta=1 accumulation across batch
		for b := 0; b < n; b++ {
			gOut := gradOut.Data()[b*cout*cols : (b+1)*cout*cols]
			xb := x.Data()[b*imSize : (b+1)*imSize]
			tensor.Gemm(false, true, cout, k, cols, 1, gOut, cols, xb, cols, 1, gradW.Data(), k)
			tensor.Gemm(true, false, k, cols, cout, 1, w.Data(), k, gOut, cols,
				0, gradX.Data()[b*imSize:(b+1)*imSize], cols)
		}
		return []*tensor.Tensor{gradX, gradW}
	}

	gradW := wsp.NewTensor(ws) // zeroed: beta=1 accumulation across batch
	dg, asConv := dataGradGeom(g)
	var gradX *tensor.Tensor
	var buf []float32 // the rotated kernel, or the Col2im route's panel
	if asConv {
		// wr[ci, co, KH−1−ky, KW−1−kx] = w[co, ci, ky, kx], built once per
		// call: the weights change every step, and the op keeps no state.
		gradX = wsp.NewTensorUninit(xs) // fully written by the beta=0 ConvGemms
		buf = wsp.GetF32(cout * k)
		kk := g.KH * g.KW
		for co := 0; co < cout; co++ {
			for ci := 0; ci < cin; ci++ {
				src := w.Data()[(co*cin+ci)*kk : (co*cin+ci+1)*kk]
				dst := buf[(ci*cout+co)*kk : (ci*cout+co+1)*kk]
				for t, v := range src {
					dst[kk-1-t] = v
				}
			}
		}
	} else {
		gradX = wsp.NewTensor(xs) // zeroed: Col2im accumulates
		buf = wsp.GetF32(k * cols)
	}
	for b := 0; b < n; b++ {
		gOut := gradOut.Data()[b*cout*cols : (b+1)*cout*cols]
		gxb := gradX.Data()[b*imSize : (b+1)*imSize]
		// Weight gradient: gradW += gOut [Cout,cols] × im2col(x)ᵀ [cols,k].
		tensor.ConvGemmWeightGrad(gOut, cout, x.Data()[b*imSize:(b+1)*imSize], cin, g, gradW.Data(), wsp)
		if asConv {
			// Data gradient: gradX [Cin, H·W] = wr [Cin, Cout·KH·KW] ⊛ gOut.
			tensor.ConvGemm(buf, cin, gOut, cout, dg, gxb, wsp)
		} else {
			// Data gradient: cols ← wᵀ [k,Cout] × gOut [Cout,cols]; scatter.
			tensor.Gemm(true, false, k, cols, cout, 1, w.Data(), k, gOut, cols, 0, buf, cols)
			tensor.Col2im(buf, cin, g, gxb)
		}
	}
	wsp.PutF32(buf)
	return []*tensor.Tensor{gradX, gradW}
}

// dataGradGeom returns the geometry under which a stride-1 convolution's
// data gradient is itself a convolution: gOut (OutH × OutW) padded by
// Dil·(K−1) − Pad per side and swept by the rotated kernel at the same
// dilation, whose output is exactly InH × InW. ok is false for strided
// convolutions and for padding past the kernel's reach (Pad > Dil·(K−1)),
// which keep the Col2im scatter.
func dataGradGeom(g tensor.ConvGeom) (tensor.ConvGeom, bool) {
	dg := tensor.ConvGeom{
		InH: g.OutH(), InW: g.OutW(),
		KH: g.KH, KW: g.KW,
		StrideH: 1, StrideW: 1,
		PadH: g.DilH*(g.KH-1) - g.PadH, PadW: g.DilW*(g.KW-1) - g.PadW,
		DilH: g.DilH, DilW: g.DilW,
	}
	ok := g.StrideH == 1 && g.StrideW == 1 && dg.PadH >= 0 && dg.PadW >= 0
	return dg, ok
}

// FwdCost implements graph.Op using the paper's convolution FLOP formula.
func (c *Conv2D) FwdCost(in []tensor.Shape, out tensor.Shape, elemBytes int) graph.Cost {
	x, w := in[0], in[1]
	fl := graph.ConvFLOPs(w[2], w[3], out[2], out[3], x[1], w[0], x[0])
	bytes := float64(x.NumElements()+out.NumElements()) * float64(elemBytes)
	bytes += float64(w.NumElements()) * float64(elemBytes)
	return graph.Cost{FLOPs: fl, Bytes: bytes}
}

// BwdCost implements graph.Op: backward-data plus backward-filter each cost
// one forward-equivalent GEMM, so backward ≈ 2× forward FLOPs (matching the
// paper's Fig 8/9 ratio of backward to forward convolution TF).
func (c *Conv2D) BwdCost(in []tensor.Shape, out tensor.Shape, elemBytes int) graph.Cost {
	f := c.FwdCost(in, out, elemBytes)
	return graph.Cost{FLOPs: 2 * f.FLOPs, Bytes: 2 * f.Bytes}
}

// Categories implements graph.Op.
func (c *Conv2D) Categories() (graph.Category, graph.Category) {
	return graph.CatForwardConv, graph.CatBackwardConv
}

// Deconv2D is a transposed ("deconvolution") layer that upsamples by
// Stride, the paper's decoder building block ("3×3 deconv, 256, /2").
// Inputs: x [N,Cin,H,W], w [Cin,Cout,KH,KW]. Output spatial size is
// (H-1)·Stride + KH - 2·Pad + OutPad. With k=3, stride=2, pad=1 and
// OutPad=1 the layer exactly doubles the spatial size.
type Deconv2D struct {
	Stride, Pad, OutPad int
}

// NewDeconv2DOutPad returns a transposed convolution with explicit output
// padding (must be < Stride).
func NewDeconv2DOutPad(stride, pad, outPad int) *Deconv2D {
	if stride < 1 || pad < 0 || outPad < 0 || outPad >= stride {
		panic("nn: invalid Deconv2D geometry")
	}
	return &Deconv2D{Stride: stride, Pad: pad, OutPad: outPad}
}

// Name implements graph.Op.
func (d *Deconv2D) Name() string { return "deconv2d" }

// virtualGeom is the geometry of the *virtual forward convolution* whose
// adjoint this layer computes: it maps the deconv OUTPUT (OH,OW) down to
// the deconv INPUT (H,W).
func (d *Deconv2D) virtualGeom(x, w tensor.Shape) tensor.ConvGeom {
	oh := (x[2]-1)*d.Stride + w[2] - 2*d.Pad + d.OutPad
	ow := (x[3]-1)*d.Stride + w[3] - 2*d.Pad + d.OutPad
	return tensor.ConvGeom{
		InH: oh, InW: ow,
		KH: w[2], KW: w[3],
		StrideH: d.Stride, StrideW: d.Stride,
		PadH: d.Pad, PadW: d.Pad,
		DilH: 1, DilW: 1,
	}
}

// OutShape implements graph.Op.
func (d *Deconv2D) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("deconv2d wants 2 inputs (x, w), got %d", len(in))
	}
	x, w := in[0], in[1]
	if x.Rank() != 4 || w.Rank() != 4 {
		return nil, fmt.Errorf("deconv2d wants rank-4 inputs")
	}
	if x[1] != w[0] {
		return nil, fmt.Errorf("deconv2d channel mismatch: input %d, weight-in %d", x[1], w[0])
	}
	g := d.virtualGeom(x, w)
	if g.InH <= 0 || g.InW <= 0 {
		return nil, fmt.Errorf("deconv2d output would be %dx%d", g.InH, g.InW)
	}
	if g.OutH() != x[2] || g.OutW() != x[3] {
		return nil, fmt.Errorf("deconv2d geometry not invertible for input %v", x)
	}
	return tensor.NCHW(x[0], w[1], g.InH, g.InW), nil
}

// Forward computes the adjoint of the virtual convolution: columns are
// produced by a GEMM with the transposed filter, then scattered by Col2im.
func (d *Deconv2D) Forward(in []*tensor.Tensor) *tensor.Tensor {
	return d.ForwardScratch(in, heapWS)
}

// ForwardScratch implements graph.ScratchOp.
func (d *Deconv2D) ForwardScratch(in []*tensor.Tensor, wsp *tensor.Workspace) *tensor.Tensor {
	x, w := in[0], in[1]
	xs, ws := x.Shape(), w.Shape()
	n, cin, h, wd := xs[0], xs[1], xs[2], xs[3]
	cout := ws[1]
	g := d.virtualGeom(xs, ws)
	k := cout * g.KH * g.KW
	cols := h * wd

	out := wsp.NewTensor(tensor.NCHW(n, cout, g.InH, g.InW)) // zeroed: Col2im accumulates
	col := wsp.GetF32(k * cols)
	outSize := cout * g.InH * g.InW
	for b := 0; b < n; b++ {
		// cols[k, H·W] = w_matᵀ [k, Cin] × x_mat [Cin, H·W]
		tensor.Gemm(true, false, k, cols, cin, 1, w.Data(), k,
			x.Data()[b*cin*cols:], cols, 0, col, cols)
		tensor.Col2im(col, cout, g, out.Data()[b*outSize:(b+1)*outSize])
	}
	wsp.PutF32(col)
	return out
}

// Backward produces gradients for x (a plain forward convolution of gradOut
// by w) and w (conv weight-gradient with roles of input/output swapped).
func (d *Deconv2D) Backward(in []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	return d.BackwardScratch(in, out, gradOut, heapWS)
}

// BackwardScratch implements graph.ScratchOp.
func (d *Deconv2D) BackwardScratch(in []*tensor.Tensor, out, gradOut *tensor.Tensor, wsp *tensor.Workspace) []*tensor.Tensor {
	x, w := in[0], in[1]
	xs, ws := x.Shape(), w.Shape()
	n, cin, h, wd := xs[0], xs[1], xs[2], xs[3]
	cout := ws[1]
	g := d.virtualGeom(xs, ws)
	cols := h * wd
	outSize := cout * g.InH * g.InW

	gradX := wsp.NewTensorUninit(xs) // fully written by ConvGemm
	gradW := wsp.NewTensor(ws)       // zeroed: beta=1 accumulation across batch
	for b := 0; b < n; b++ {
		gOut := gradOut.Data()[b*outSize : (b+1)*outSize]
		xb := x.Data()[b*cin*cols : (b+1)*cin*cols]
		// gradX_mat [Cin, H·W] = w_mat [Cin, k] × im2col(gOut) [k, H·W]
		tensor.ConvGemm(w.Data(), cin, gOut, cout, g, gradX.Data()[b*cin*cols:(b+1)*cin*cols], wsp)
		// gradW_mat [Cin, k] += x_mat [Cin, H·W] × im2col(gOut)ᵀ [H·W, k]
		tensor.ConvGemmWeightGrad(xb, cin, gOut, cout, g, gradW.Data(), wsp)
	}
	return []*tensor.Tensor{gradX, gradW}
}

// FwdCost implements graph.Op: a transposed convolution does the same GEMM
// work as the virtual convolution of matching geometry.
func (d *Deconv2D) FwdCost(in []tensor.Shape, out tensor.Shape, elemBytes int) graph.Cost {
	x, w := in[0], in[1]
	fl := graph.ConvFLOPs(w[2], w[3], x[2], x[3], w[1], w[0], x[0])
	bytes := float64(x.NumElements()+out.NumElements()+w.NumElements()) * float64(elemBytes)
	return graph.Cost{FLOPs: fl, Bytes: bytes}
}

// BwdCost implements graph.Op.
func (d *Deconv2D) BwdCost(in []tensor.Shape, out tensor.Shape, elemBytes int) graph.Cost {
	f := d.FwdCost(in, out, elemBytes)
	return graph.Cost{FLOPs: 2 * f.FLOPs, Bytes: 2 * f.Bytes}
}

// Categories implements graph.Op.
func (d *Deconv2D) Categories() (graph.Category, graph.Category) {
	return graph.CatForwardConv, graph.CatBackwardConv
}
