package nn

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// INT8 inference path. An inference-cloned convolution can carry a cached
// symmetric quantization of its weights — one scale per output channel, so
// narrow filters are not crushed by a wide sibling channel — produced once
// per clone by MarkInt8. At execute time the kernel quantizes its
// activation panel dynamically (one tensor-wide scale), multiplies int8
// codes with exact int32 accumulation (tensor.GemmInt8), and dequantizes
// the output row while it is cache-hot.
//
// Accuracy contract: the only rounding beyond FP32 is the two
// quantizations, so the per-logit error is bounded by the propagated
// half-step errors; the serving stack verifies a max-abs logit bound and
// argmax-identical masks against FP32 on a reference corpus (see
// infer's quantized parity tests). Batch invariance is preserved: each
// batch element quantizes and reduces independently.

// int8Weights is the cached per-output-channel quantization of one
// inference convolution's weights. Codes are laid out like the OIHW weight
// matrix viewed as [Cout, Cin·KH·KW].
type int8Weights struct {
	codes  []int8
	scales []float32 // one per output channel
}

// MarkInt8 switches every inference-mode convolution in g to the quantized
// INT8 kernel, quantizing each one's weights per output channel. It is
// called on inference clones only (after graph.CloneForInference); weights
// are read through the shared parameter tensors, so the model must not be
// trained concurrently. Weights containing NaN/±Inf (or channels whose
// magnitude underflows the code step) surface compress.ErrUnquantizable.
//
// The quantized codes are cached on the clone's op instances: a weight
// hot-swap requires fresh clones, exactly like the FP32 path's fused
// BN parameters.
func MarkInt8(g *graph.Graph) error {
	marked := 0
	for _, n := range g.Nodes() {
		if n.Kind != graph.KindOp {
			continue
		}
		var cv *Conv2D
		switch op := n.Op.(type) {
		case *Conv2D:
			cv = op
		case *FusedConvBias:
			cv = op.convOp
		default:
			continue
		}
		if !cv.Inference || cv.qw != nil {
			continue
		}
		w := n.Inputs[1].Value
		if w == nil {
			return fmt.Errorf("nn: MarkInt8: %s node %d has no weight tensor", n.Op.Name(), n.ID)
		}
		ws := w.Shape()
		if ws.Rank() != 4 {
			return fmt.Errorf("nn: MarkInt8: %s weights must be OIHW, got %v", n.Op.Name(), ws)
		}
		codes, scales, err := compress.QuantizeSymInt8(w.Data(), ws[0])
		if err != nil {
			return fmt.Errorf("nn: quantizing %s weights %v: %w", n.Op.Name(), ws, err)
		}
		cv.qw = &int8Weights{codes: codes, scales: scales}
		marked++
	}
	if marked == 0 {
		return fmt.Errorf("nn: MarkInt8 found no inference convolutions (clone the graph first)")
	}
	return nil
}

// int8Tile computes one image's convolution tile out[cout, oh·ow] through
// the quantized kernel: im2col (skipped for pointwise convolutions, whose
// panel IS the input), dynamic activation quantization into bq, and the
// int8 GEMM. col and bq are caller-provided scratch of k·cols elements
// (col is unused for pointwise geometries and may be nil).
func (c *Conv2D) int8Tile(src []float32, cin int, g tensor.ConvGeom, tile []float32, cout int, col []float32, bq []int8) {
	cols := g.OutH() * g.OutW()
	k := cin * g.KH * g.KW
	panel := src
	if !is1x1(g) {
		tensor.Im2col(src, cin, g, col)
		panel = col[:k*cols]
	}
	bScale := tensor.QuantizeActInt8(panel[:k*cols], bq)
	tensor.GemmInt8(cout, cols, k, c.qw.codes, c.qw.scales, bq, bScale, tile)
}
