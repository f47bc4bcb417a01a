package nn

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// FusedBNReLU is the inference-clone kernel for the batchnorm→relu chains
// both networks are built from: per-sample batch-norm statistics (see
// BatchNorm.PerSample) and the rectifier applied in one pass over the
// activation, saving the intermediate tensor and its DRAM round-trip. The
// per-element arithmetic — normalize with float64 statistics, scale/shift
// folding, then the rectifier t > 0 ? t : 0, which maps NaN and −0 to +0 —
// is identical to the unfused pair, so fused and unfused graphs produce the
// same bits. Forward-only: the op exists only in inference clones and has
// no backward pass.
type FusedBNReLU struct {
	Eps float64
}

// Name implements graph.Op.
func (f *FusedBNReLU) Name() string { return "batchnorm_relu_inf" }

// OutShape implements graph.Op.
func (f *FusedBNReLU) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("batchnorm_relu_inf wants 3 inputs (x, gamma, beta)")
	}
	x, g, be := in[0], in[1], in[2]
	if x.Rank() != 4 || g.Rank() != 1 || be.Rank() != 1 || g[0] != x[1] || be[0] != x[1] {
		return nil, fmt.Errorf("batchnorm_relu_inf shapes %v/%v/%v incompatible", x, g, be)
	}
	return x.Clone(), nil
}

// Forward implements graph.Op.
func (f *FusedBNReLU) Forward(in []*tensor.Tensor) *tensor.Tensor {
	return f.ForwardScratch(in, heapWS)
}

// ForwardScratch implements graph.ForwardScratchOp (the op has no backward
// half, so not graph.ScratchOp): per-sample statistics, then
// normalize+rectify in a single pass over each channel row (the shared
// perSampleBNForward kernel — see norm.go — with the fused rectifier).
func (f *FusedBNReLU) ForwardScratch(in []*tensor.Tensor, wsp *tensor.Workspace) *tensor.Tensor {
	return perSampleBNForward(in[0], in[1], in[2], f.Eps, true, wsp)
}

// Backward implements graph.Op.
func (f *FusedBNReLU) Backward(in []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	panic("nn: batchnorm_relu_inf is inference-only and has no backward pass")
}

// FwdCost implements graph.Op: the batch-norm passes plus the fused
// rectifier, one intermediate tensor fewer than the unfused chain.
func (f *FusedBNReLU) FwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost {
	return pointwiseCost(out.NumElements(), 3, 5, eb)
}

// BwdCost implements graph.Op.
func (f *FusedBNReLU) BwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost {
	return graph.Cost{}
}

// Categories implements graph.Op.
func (f *FusedBNReLU) Categories() (graph.Category, graph.Category) {
	return graph.CatForwardPointwise, graph.CatBackwardPointwise
}

// InferenceFusions is the graph.FuseRule the serving path applies when
// cloning a trained graph for inference:
//
//   - batchnorm→relu chains collapse into FusedBNReLU (one pass, no
//     intermediate tensor) when the batch-norm output has no other reader;
//   - dropout nodes are elided entirely (inference dropout is the
//     identity), removing a full tensor copy per dense layer.
//
// Both substitutions are bit-exact against the unfused inference ops.
func InferenceFusions(n *graph.Node) (op graph.Op, inputs, absorbed []*graph.Node, ok bool) {
	switch n.Op.(type) {
	case ReLU:
		in := n.Inputs[0]
		if bn, isBN := in.Op.(*BatchNorm); isBN && in.Consumers() == 1 {
			return &FusedBNReLU{Eps: bn.Eps}, in.Inputs, []*graph.Node{in}, true
		}
	case *Dropout:
		return nil, n.Inputs[:1], nil, true
	}
	return nil, nil, nil, false
}
