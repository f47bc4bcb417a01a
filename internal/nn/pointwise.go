package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// pointwiseCost is the shared cost model for elementwise kernels: a couple
// of FLOPs per element, traffic of one read and one write per tensor
// touched. These kernels are memory-bound, which is why the paper's
// profiles show them near peak memory bandwidth and negligible math.
func pointwiseCost(elems int, tensorsTouched int, flopsPerElem float64, elemBytes int) graph.Cost {
	return graph.Cost{
		FLOPs: flopsPerElem * float64(elems),
		Bytes: float64(tensorsTouched) * float64(elems) * float64(elemBytes),
	}
}

// ReLU is the rectified linear activation.
type ReLU struct{}

// Name implements graph.Op.
func (ReLU) Name() string { return "relu" }

// OutShape implements graph.Op.
func (ReLU) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("relu wants 1 input")
	}
	return in[0].Clone(), nil
}

// Forward implements graph.Op.
func (r ReLU) Forward(in []*tensor.Tensor) *tensor.Tensor {
	return r.ForwardScratch(in, heapWS)
}

// ForwardScratch implements graph.ScratchOp.
func (ReLU) ForwardScratch(in []*tensor.Tensor, wsp *tensor.Workspace) *tensor.Tensor {
	x := in[0]
	out := wsp.NewTensorUninit(x.Shape())
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		if v > 0 {
			od[i] = v
		} else {
			od[i] = 0
		}
	}
	return out
}

// Backward implements graph.Op.
func (r ReLU) Backward(in []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	return r.BackwardScratch(in, out, gradOut, heapWS)
}

// BackwardScratch implements graph.ScratchOp.
func (ReLU) BackwardScratch(in []*tensor.Tensor, out, gradOut *tensor.Tensor, wsp *tensor.Workspace) []*tensor.Tensor {
	x := in[0]
	g := wsp.NewTensorUninit(x.Shape())
	xd, gd, od := x.Data(), gradOut.Data(), g.Data()
	for i, v := range xd {
		if v > 0 {
			od[i] = gd[i]
		} else {
			od[i] = 0
		}
	}
	return []*tensor.Tensor{g}
}

// FwdCost implements graph.Op.
func (ReLU) FwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost {
	return pointwiseCost(out.NumElements(), 2, 1, eb)
}

// BwdCost implements graph.Op.
func (ReLU) BwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost {
	return pointwiseCost(out.NumElements(), 3, 1, eb)
}

// Categories implements graph.Op.
func (ReLU) Categories() (graph.Category, graph.Category) {
	return graph.CatForwardPointwise, graph.CatBackwardPointwise
}

// Add is the elementwise residual addition used by ResNet blocks.
type Add struct{}

// Name implements graph.Op.
func (Add) Name() string { return "add" }

// OutShape implements graph.Op.
func (Add) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("add wants 2 inputs")
	}
	if !in[0].Equal(in[1]) {
		return nil, fmt.Errorf("add shape mismatch %v vs %v", in[0], in[1])
	}
	return in[0].Clone(), nil
}

// Forward implements graph.Op.
func (a Add) Forward(in []*tensor.Tensor) *tensor.Tensor {
	return a.ForwardScratch(in, heapWS)
}

// ForwardScratch implements graph.ScratchOp.
func (Add) ForwardScratch(in []*tensor.Tensor, wsp *tensor.Workspace) *tensor.Tensor {
	x, y := in[0], in[1]
	out := wsp.NewTensorUninit(x.Shape())
	xd, yd, od := x.Data(), y.Data(), out.Data()
	for i, v := range xd {
		od[i] = v + yd[i]
	}
	return out
}

// Backward implements graph.Op.
func (a Add) Backward(in []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	return a.BackwardScratch(in, out, gradOut, heapWS)
}

// BackwardScratch implements graph.ScratchOp.
func (Add) BackwardScratch(in []*tensor.Tensor, out, gradOut *tensor.Tensor, wsp *tensor.Workspace) []*tensor.Tensor {
	g1 := wsp.NewTensorUninit(gradOut.Shape())
	g2 := wsp.NewTensorUninit(gradOut.Shape())
	copy(g1.Data(), gradOut.Data())
	copy(g2.Data(), gradOut.Data())
	return []*tensor.Tensor{g1, g2}
}

// FwdCost implements graph.Op.
func (Add) FwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost {
	return pointwiseCost(out.NumElements(), 3, 1, eb)
}

// BwdCost implements graph.Op.
func (Add) BwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost {
	return pointwiseCost(out.NumElements(), 3, 0, eb)
}

// Categories implements graph.Op.
func (Add) Categories() (graph.Category, graph.Category) {
	return graph.CatForwardPointwise, graph.CatBackwardPointwise
}

// Dropout zeroes activations with probability Rate during training and
// rescales survivors by 1/(1-Rate). The mask is stored on the op instance
// between forward and backward (single-executor constraint; see package
// comment). With Train=false the op is the identity.
type Dropout struct {
	Rate  float64
	Train bool
	rng   *rand.Rand
	mask  []float32
}

// NewDropout returns a dropout op seeded deterministically.
func NewDropout(rate float64, seed int64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic("nn: dropout rate must be in [0,1)")
	}
	return &Dropout{Rate: rate, Train: true, rng: rand.New(rand.NewSource(seed))}
}

// Name implements graph.Op.
func (d *Dropout) Name() string { return "dropout" }

// OutShape implements graph.Op.
func (d *Dropout) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("dropout wants 1 input")
	}
	return in[0].Clone(), nil
}

// Forward implements graph.Op.
func (d *Dropout) Forward(in []*tensor.Tensor) *tensor.Tensor {
	return d.ForwardScratch(in, heapWS)
}

// ForwardScratch implements graph.ScratchOp.
func (d *Dropout) ForwardScratch(in []*tensor.Tensor, wsp *tensor.Workspace) *tensor.Tensor {
	x := in[0]
	out := wsp.NewTensorUninit(x.Shape())
	xd, od := x.Data(), out.Data()
	if !d.Train || d.Rate == 0 {
		copy(od, xd)
		return out
	}
	if cap(d.mask) < x.NumElements() {
		d.mask = make([]float32, x.NumElements())
	}
	d.mask = d.mask[:x.NumElements()]
	keep := float32(1 / (1 - d.Rate))
	for i := range xd {
		if d.rng.Float64() < d.Rate {
			d.mask[i] = 0
			od[i] = 0
		} else {
			d.mask[i] = keep
			od[i] = xd[i] * keep
		}
	}
	return out
}

// Backward implements graph.Op.
func (d *Dropout) Backward(in []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	return d.BackwardScratch(in, out, gradOut, heapWS)
}

// BackwardScratch implements graph.ScratchOp.
func (d *Dropout) BackwardScratch(in []*tensor.Tensor, out, gradOut *tensor.Tensor, wsp *tensor.Workspace) []*tensor.Tensor {
	g := wsp.NewTensorUninit(gradOut.Shape())
	gd, od := gradOut.Data(), g.Data()
	if !d.Train || d.Rate == 0 {
		copy(od, gd)
		return []*tensor.Tensor{g}
	}
	for i := range gd {
		od[i] = gd[i] * d.mask[i]
	}
	return []*tensor.Tensor{g}
}

// FwdCost implements graph.Op.
func (d *Dropout) FwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost {
	return pointwiseCost(out.NumElements(), 2, 1, eb)
}

// BwdCost implements graph.Op.
func (d *Dropout) BwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost {
	return pointwiseCost(out.NumElements(), 2, 1, eb)
}

// Categories implements graph.Op.
func (d *Dropout) Categories() (graph.Category, graph.Category) {
	return graph.CatForwardPointwise, graph.CatBackwardPointwise
}
