package nn

import "repro/internal/graph"

// CloneForInference implementations (graph's inferenceCloner) for the ops
// whose training instances cannot be shared with an inference graph. Three
// things force a clone: per-instance kernel state (MaxPool2D's index map,
// Dropout's mask — each ties an instance to a single executor),
// train/inference semantic differences (BatchNorm statistics, Dropout),
// and state only a serving instance may carry (the convolutions' INT8
// weights, see MarkInt8). Every other op in this package is stateless and
// is shared by reference when a graph is cloned for serving.

// CloneForInference implements graph's inferenceCloner: same geometry, marked
// for inference so MarkInt8 may quantize it.
func (c *Conv2D) CloneForInference() graph.Op {
	return &Conv2D{Stride: c.Stride, Pad: c.Pad, Dilation: c.Dilation, Inference: true}
}

// CloneForInference implements graph's inferenceCloner: same geometry and
// epilogue over an inference-mode inner conv.
func (c *FusedConvBias) CloneForInference() graph.Op {
	return &FusedConvBias{
		Stride: c.Stride, Pad: c.Pad, Dilation: c.Dilation, ReLU: c.ReLU,
		convOp: &Conv2D{Stride: c.Stride, Pad: c.Pad, Dilation: c.Dilation, Inference: true},
	}
}

// CloneForInference implements graph's inferenceCloner: same geometry, fresh
// argmax index map.
func (m *MaxPool2D) CloneForInference() graph.Op {
	return &MaxPool2D{Kernel: m.Kernel, Stride: m.Stride, Pad: m.Pad}
}

// CloneForInference implements graph's inferenceCloner: per-sample inference
// normalization (bit-identical to the batch-1 training forward for every
// batch element; see BatchNorm.PerSample), no shared statistics buffers.
func (b *BatchNorm) CloneForInference() graph.Op {
	return &BatchNorm{Eps: b.Eps, Momentum: b.Momentum, PerSample: true}
}

// CloneForInference implements graph's inferenceCloner: inference dropout is
// the identity.
func (d *Dropout) CloneForInference() graph.Op {
	return &Dropout{Rate: d.Rate}
}
