package nn

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Concat joins tensors along the channel axis — the combination primitive
// of Tiramisu's dense blocks (which concatenate where ResNet adds) and of
// the ASPP branch merge. Its kernels are pure data movement, which is why
// the paper files them under "Copies/Transposes".
type Concat struct{}

// Name implements graph.Op.
func (Concat) Name() string { return "concat" }

// OutShape implements graph.Op.
func (Concat) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) < 2 {
		return nil, fmt.Errorf("concat wants ≥2 inputs")
	}
	first := in[0]
	if first.Rank() != 4 {
		return nil, fmt.Errorf("concat wants rank-4 inputs")
	}
	channels := first[1]
	for _, s := range in[1:] {
		if s.Rank() != 4 || s[0] != first[0] || s[2] != first[2] || s[3] != first[3] {
			return nil, fmt.Errorf("concat incompatible shapes %v vs %v", first, s)
		}
		channels += s[1]
	}
	return tensor.NCHW(first[0], channels, first[2], first[3]), nil
}

// Forward implements graph.Op.
func (c Concat) Forward(in []*tensor.Tensor) *tensor.Tensor {
	return c.ForwardScratch(in, heapWS)
}

// ForwardScratch implements graph.ScratchOp.
func (Concat) ForwardScratch(in []*tensor.Tensor, wsp *tensor.Workspace) *tensor.Tensor {
	first := in[0].Shape()
	n, h, w := first[0], first[2], first[3]
	hw := h * w
	totalC := 0
	for _, t := range in {
		totalC += t.Shape()[1]
	}
	out := wsp.NewTensorUninit(tensor.NCHW(n, totalC, h, w))
	od := out.Data()
	for img := 0; img < n; img++ {
		off := img * totalC * hw
		for _, t := range in {
			c := t.Shape()[1]
			src := t.Data()[img*c*hw : (img+1)*c*hw]
			copy(od[off:off+c*hw], src)
			off += c * hw
		}
	}
	return out
}

// Backward implements graph.Op, splitting the gradient back per input.
func (c Concat) Backward(in []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	return c.BackwardScratch(in, out, gradOut, heapWS)
}

// BackwardScratch implements graph.ScratchOp.
func (Concat) BackwardScratch(in []*tensor.Tensor, out, gradOut *tensor.Tensor, wsp *tensor.Workspace) []*tensor.Tensor {
	first := in[0].Shape()
	n, h, w := first[0], first[2], first[3]
	hw := h * w
	totalC := out.Shape()[1]
	grads := make([]*tensor.Tensor, len(in))
	for i, t := range in {
		grads[i] = wsp.NewTensorUninit(t.Shape()) // fully written by the copies
	}
	gd := gradOut.Data()
	for img := 0; img < n; img++ {
		off := img * totalC * hw
		for i, t := range in {
			c := t.Shape()[1]
			dst := grads[i].Data()[img*c*hw : (img+1)*c*hw]
			copy(dst, gd[off:off+c*hw])
			off += c * hw
		}
	}
	return grads
}

// FwdCost implements graph.Op: a pure copy (read+write).
func (Concat) FwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost {
	return graph.Cost{FLOPs: 0, Bytes: 2 * float64(out.NumElements()) * float64(eb)}
}

// BwdCost implements graph.Op.
func (Concat) BwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost {
	return graph.Cost{FLOPs: 0, Bytes: 2 * float64(out.NumElements()) * float64(eb)}
}

// Categories implements graph.Op.
func (Concat) Categories() (graph.Category, graph.Category) {
	return graph.CatCopyTranspose, graph.CatCopyTranspose
}

// Identity copies its input — a stand-in for the layout copies/transposes
// TensorFlow inserts, letting graphs model that traffic explicitly (the
// paper removed some of these for a 10% gain at scale).
type Identity struct{}

// Name implements graph.Op.
func (Identity) Name() string { return "identity" }

// OutShape implements graph.Op.
func (Identity) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("identity wants 1 input")
	}
	return in[0].Clone(), nil
}

// Forward implements graph.Op.
func (id Identity) Forward(in []*tensor.Tensor) *tensor.Tensor {
	return id.ForwardScratch(in, heapWS)
}

// ForwardScratch implements graph.ScratchOp.
func (Identity) ForwardScratch(in []*tensor.Tensor, wsp *tensor.Workspace) *tensor.Tensor {
	out := wsp.NewTensorUninit(in[0].Shape())
	copy(out.Data(), in[0].Data())
	return out
}

// Backward implements graph.Op.
func (id Identity) Backward(in []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	return id.BackwardScratch(in, out, gradOut, heapWS)
}

// BackwardScratch implements graph.ScratchOp.
func (Identity) BackwardScratch(in []*tensor.Tensor, out, gradOut *tensor.Tensor, wsp *tensor.Workspace) []*tensor.Tensor {
	g := wsp.NewTensorUninit(gradOut.Shape())
	copy(g.Data(), gradOut.Data())
	return []*tensor.Tensor{g}
}

// FwdCost implements graph.Op.
func (Identity) FwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost {
	return graph.Cost{Bytes: 2 * float64(out.NumElements()) * float64(eb)}
}

// BwdCost implements graph.Op.
func (Identity) BwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost {
	return graph.Cost{Bytes: 2 * float64(out.NumElements()) * float64(eb)}
}

// Categories implements graph.Op.
func (Identity) Categories() (graph.Category, graph.Category) {
	return graph.CatCopyTranspose, graph.CatCopyTranspose
}
