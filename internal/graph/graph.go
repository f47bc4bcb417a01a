// Package graph implements the dataflow-graph programming model the paper's
// TensorFlow stack provides: networks are graphs of differentiable
// operations, executed by a dynamic scheduler that runs each operation as
// soon as its inputs are available, with reverse-mode automatic
// differentiation and per-operation FLOP/byte accounting (the graph-walk
// analysis of the paper's Section VI).
package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// Category classifies kernels the way the paper's profiles (Figs 3, 8, 9)
// group them.
type Category int

const (
	CatForwardConv Category = iota
	CatForwardPointwise
	CatBackwardConv
	CatBackwardPointwise
	CatOptimizer
	CatCopyTranspose
	CatAllreduce
	CatTypeConversion
	numCategories
)

// NumCategories is the count of kernel categories.
const NumCategories = int(numCategories)

// String returns the paper's name for the category.
func (c Category) String() string {
	switch c {
	case CatForwardConv:
		return "Forward Convolutions"
	case CatForwardPointwise:
		return "Forward Point-wise"
	case CatBackwardConv:
		return "Backward Convolutions"
	case CatBackwardPointwise:
		return "Backward Point-wise"
	case CatOptimizer:
		return "Optimizer"
	case CatCopyTranspose:
		return "Copies/Transposes"
	case CatAllreduce:
		return "Allreduce (NCCL)"
	case CatTypeConversion:
		return "Type Conversions"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Cost describes the floating-point work and memory traffic of a kernel.
type Cost struct {
	FLOPs float64 // multiply and add each count as one FLOP, per the paper
	Bytes float64 // DRAM traffic in bytes
}

// Add returns the sum of two costs.
func (c Cost) Add(o Cost) Cost { return Cost{c.FLOPs + o.FLOPs, c.Bytes + o.Bytes} }

// Scale returns the cost multiplied by f.
func (c Cost) Scale(f float64) Cost { return Cost{c.FLOPs * f, c.Bytes * f} }

// Op is a differentiable graph operation. Implementations live in
// internal/nn and internal/loss.
type Op interface {
	// Name identifies the op kind (e.g. "conv2d", "relu").
	Name() string
	// OutShape infers the output shape from input shapes, or errors if the
	// inputs are incompatible. It must be callable without tensor data so
	// graphs can be built symbolically for FLOP analysis.
	OutShape(in []tensor.Shape) (tensor.Shape, error)
	// Forward computes the op's output. in[i] corresponds to input node i.
	// The returned tensor must be freshly allocated and alias neither the
	// inputs nor any earlier output: the pooled executor recycles dead
	// values in place, so an aliased return would be corrupted.
	Forward(in []*tensor.Tensor) *tensor.Tensor
	// Backward computes gradients with respect to each input, given the
	// inputs, the forward output, and the gradient flowing into the output.
	// A nil entry means "no gradient" (e.g. for integer label inputs).
	Backward(in []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor
	// FwdCost and BwdCost report the work for one evaluation with the given
	// shapes. elemBytes is the activation storage width (4 for FP32, 2 for
	// FP16) so memory traffic scales with precision.
	FwdCost(in []tensor.Shape, out tensor.Shape, elemBytes int) Cost
	BwdCost(in []tensor.Shape, out tensor.Shape, elemBytes int) Cost
	// Categories returns the paper's kernel category for the forward and
	// backward kernels of this op.
	Categories() (fwd, bwd Category)
}

// ForwardScratchOp is the scratch-aware forward half of an Op: a kernel
// that implements it draws its output tensor and internal scratch (im2col
// panels, batch-norm temporaries, pooling index maps) from the executor's
// Workspace instead of the Go heap, so a pooled executor runs at steady
// state with near-zero allocation. ForwardScratch must be semantically
// identical to Forward, and every tensor it returns must come from ws —
// the executor recycles exactly those into the workspace's pool. The plain
// method remains the path for unpooled execution. Inference-only kernels
// (nn.FusedBNReLU) implement this half alone.
type ForwardScratchOp interface {
	Op
	ForwardScratch(in []*tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor
}

// ScratchOp adds the backward half, under the same contract: every
// non-nil gradient BackwardScratch returns comes from ws.
type ScratchOp interface {
	ForwardScratchOp
	BackwardScratch(in []*tensor.Tensor, out, gradOut *tensor.Tensor, ws *tensor.Workspace) []*tensor.Tensor
}

// CachedOp is implemented by ops that keep per-instance kernel caches
// between forward and backward (pooling index maps, saved batch
// statistics, dropout masks). ReleaseCaches drops them; the op stays
// fully usable and simply recomputes or re-sizes on its next execution.
type CachedOp interface {
	ReleaseCaches()
}

// ReleaseOpCaches drops every per-instance kernel cache in the graph. Call
// it when a network is retired from the hot loop (e.g. before handing a
// trained replica back to the caller), so cached buffers do not stay
// pinned as long as the model object lives.
func ReleaseOpCaches(g *Graph) {
	for _, n := range g.nodes {
		if c, ok := n.Op.(CachedOp); ok {
			c.ReleaseCaches()
		}
	}
}

// NodeKind distinguishes graph node roles.
type NodeKind int

const (
	KindInput NodeKind = iota // fed per step (images, labels, weight maps)
	KindParam                 // trainable parameter
	KindOp                    // computed by an Op
)

// Node is a vertex in the dataflow graph.
type Node struct {
	ID     int
	Kind   NodeKind
	Label  string
	Op     Op // nil unless KindOp
	Inputs []*Node
	Shape  tensor.Shape

	// Value holds the parameter tensor (KindParam). Inputs and op outputs
	// live in per-execution state, not on the node, so one graph can be
	// executed concurrently by many ranks.
	Value *tensor.Tensor

	// consumers counts graph edges out of this node; the executor uses it
	// for gradient accumulation bookkeeping.
	consumers int
}

// Graph is a built network: inputs, parameters, and operation nodes.
type Graph struct {
	nodes  []*Node
	inputs []*Node
	params []*Node

	// capacity is the batch an inference clone was planned for (see
	// CloneForInference); 0 for a graph built directly, whose feeds must
	// match its input shapes exactly.
	capacity int
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Input declares a fed input with the given shape (batch dimension
// included).
func (g *Graph) Input(label string, shape tensor.Shape) *Node {
	n := &Node{ID: len(g.nodes), Kind: KindInput, Label: label, Shape: shape.Clone()}
	g.nodes = append(g.nodes, n)
	g.inputs = append(g.inputs, n)
	return n
}

// Param declares a trainable parameter holding the given tensor. The tensor
// may be nil for symbolic (shape-only) graphs, in which case shape must be
// provided via ParamShaped.
func (g *Graph) Param(label string, value *tensor.Tensor) *Node {
	n := &Node{ID: len(g.nodes), Kind: KindParam, Label: label, Shape: value.Shape().Clone(), Value: value}
	g.nodes = append(g.nodes, n)
	g.params = append(g.params, n)
	return n
}

// ParamShaped declares a parameter with only a shape (symbolic graphs used
// for FLOP analysis at the paper's full 1152×768 resolution, where
// materializing weights would be wasteful).
func (g *Graph) ParamShaped(label string, shape tensor.Shape) *Node {
	n := &Node{ID: len(g.nodes), Kind: KindParam, Label: label, Shape: shape.Clone()}
	g.nodes = append(g.nodes, n)
	g.params = append(g.params, n)
	return n
}

// Apply adds an operation node computing op over the inputs, inferring its
// output shape. It panics on shape errors: graph construction bugs are
// programming errors, caught at build time exactly as TensorFlow raises
// them at graph-definition time.
func (g *Graph) Apply(op Op, inputs ...*Node) *Node {
	shapes := make([]tensor.Shape, len(inputs))
	for i, in := range inputs {
		shapes[i] = in.Shape
	}
	out, err := op.OutShape(shapes)
	if err != nil {
		panic(fmt.Sprintf("graph: %s: %v", op.Name(), err))
	}
	n := &Node{
		ID:     len(g.nodes),
		Kind:   KindOp,
		Label:  op.Name(),
		Op:     op,
		Inputs: inputs,
		Shape:  out,
	}
	for _, in := range inputs {
		in.consumers++
	}
	g.nodes = append(g.nodes, n)
	return n
}

// Consumers returns the number of graph edges out of the node (an op
// consuming a node twice counts twice). Fusion rules use it to prove a
// pattern interior has no outside readers.
func (n *Node) Consumers() int { return n.consumers }

// Nodes returns all nodes in creation (topological) order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Params returns the trainable parameter nodes in creation order.
func (g *Graph) Params() []*Node { return g.params }

// Inputs returns the declared input nodes.
func (g *Graph) Inputs() []*Node { return g.inputs }

// NumParamElements returns the total number of trainable scalars.
func (g *Graph) NumParamElements() int {
	n := 0
	for _, p := range g.params {
		n += p.Shape.NumElements()
	}
	return n
}

// ActivationElements returns the total number of op-output elements for one
// forward pass; the memory-footprint model uses it to derive feasible batch
// sizes per precision (the paper fits batch 1 in FP32 and 2 in FP16).
func (g *Graph) ActivationElements() int {
	n := 0
	for _, node := range g.nodes {
		if node.Kind == KindOp {
			n += node.Shape.NumElements()
		}
	}
	return n
}
