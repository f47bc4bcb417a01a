package nn

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// BatchNorm normalizes each channel over the (N, H, W) axes, then applies a
// learned scale γ and shift β. Inputs: x [N,C,H,W], gamma [C], beta [C].
// During training it also maintains running mean/variance on the op
// instance (used when Train=false). Batch statistics needed by the backward
// pass are recomputed from the saved input, keeping execution stateless.
type BatchNorm struct {
	Eps      float64
	Momentum float64 // running-stat update rate, e.g. 0.1
	Train    bool

	// PerSample selects the inference normalization mode used by the
	// serving path (Train must be false): each batch element is normalized
	// with its own (H, W) statistics instead of the running averages. For
	// any single element this is bit-identical to a train-mode forward at
	// batch 1 — which is how this repo has always run tiled inference — so
	// batched tile execution produces exactly the serial path's output
	// regardless of how tiles are grouped into batches. Running statistics
	// are neither read nor updated in this mode, and the backward pass is
	// not supported.
	PerSample bool

	RunningMean []float32
	RunningVar  []float32

	// savedMean/savedVar hold the batch statistics of the last training
	// forward so the backward pass skips its reduction pass over x;
	// savedValid marks them fresh (an eval-mode forward invalidates them).
	// Like Dropout's mask, this per-instance state restricts a graph
	// instance to one executor at a time.
	savedMean, savedVar []float64
	savedValid          bool
}

// NewBatchNorm returns a training-mode batch normalization op.
func NewBatchNorm(eps, momentum float64) *BatchNorm {
	return &BatchNorm{Eps: eps, Momentum: momentum, Train: true}
}

// Name implements graph.Op.
func (b *BatchNorm) Name() string { return "batchnorm" }

// OutShape implements graph.Op.
func (b *BatchNorm) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("batchnorm wants 3 inputs (x, gamma, beta)")
	}
	x, g, be := in[0], in[1], in[2]
	if x.Rank() != 4 || g.Rank() != 1 || be.Rank() != 1 || g[0] != x[1] || be[0] != x[1] {
		return nil, fmt.Errorf("batchnorm shapes %v/%v/%v incompatible", x, g, be)
	}
	return x.Clone(), nil
}

// statsInto computes per-channel mean and (biased) variance over N,H,W
// into the provided buffers (length C).
func statsInto(x *tensor.Tensor, mean, variance []float64) {
	xs := x.Shape()
	n, c, hw := xs[0], xs[1], xs[2]*xs[3]
	cnt := float64(n * hw)
	xd := x.Data()
	for ch := 0; ch < c; ch++ {
		var s, sq float64
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for _, v := range xd[base : base+hw] {
				fv := float64(v)
				s += fv
				sq += fv * fv
			}
		}
		m := s / cnt
		mean[ch] = m
		variance[ch] = sq/cnt - m*m
		if variance[ch] < 0 {
			variance[ch] = 0
		}
	}
}

// ensureSaved sizes the instance's saved-statistics buffers for C channels.
func (b *BatchNorm) ensureSaved(c int) {
	if cap(b.savedMean) < c {
		b.savedMean = make([]float64, c)
		b.savedVar = make([]float64, c)
	}
	b.savedMean = b.savedMean[:c]
	b.savedVar = b.savedVar[:c]
}

// Forward implements graph.Op.
func (b *BatchNorm) Forward(in []*tensor.Tensor) *tensor.Tensor {
	return b.ForwardScratch(in, heapWS)
}

// ForwardScratch implements graph.ScratchOp: the batch-statistics
// temporaries and the output tensor come from the workspace.
func (b *BatchNorm) ForwardScratch(in []*tensor.Tensor, wsp *tensor.Workspace) *tensor.Tensor {
	x, gamma, beta := in[0], in[1], in[2]
	xs := x.Shape()
	n, c, hw := xs[0], xs[1], xs[2]*xs[3]

	if !b.Train && b.PerSample {
		return b.forwardPerSample(x, gamma, beta, wsp)
	}

	var mean, variance []float64
	eval := false
	if b.Train {
		// Batch statistics land in the instance's saved buffers so the
		// backward pass skips its reduction pass over x.
		b.ensureSaved(c)
		mean, variance = b.savedMean, b.savedVar
		statsInto(x, mean, variance)
		b.savedValid = true
		if b.RunningMean == nil {
			b.RunningMean = make([]float32, c)
			b.RunningVar = make([]float32, c)
			for ch := 0; ch < c; ch++ {
				b.RunningVar[ch] = 1
			}
		}
		mom := b.Momentum
		for ch := 0; ch < c; ch++ {
			b.RunningMean[ch] = float32((1-mom)*float64(b.RunningMean[ch]) + mom*mean[ch])
			b.RunningVar[ch] = float32((1-mom)*float64(b.RunningVar[ch]) + mom*variance[ch])
		}
	} else {
		eval = true
		b.savedValid = false // backward after an eval forward must recompute
		mean = wsp.GetF64(c)
		variance = wsp.GetF64(c)
		for ch := 0; ch < c; ch++ {
			if b.RunningMean != nil {
				mean[ch] = float64(b.RunningMean[ch])
				variance[ch] = float64(b.RunningVar[ch])
			} else {
				mean[ch] = 0
				variance[ch] = 1
			}
		}
	}

	out := wsp.NewTensorUninit(xs) // fully written below
	xd, od, gd, bd := x.Data(), out.Data(), gamma.Data(), beta.Data()
	for ch := 0; ch < c; ch++ {
		inv := 1 / math.Sqrt(variance[ch]+b.Eps)
		scale := float32(float64(gd[ch]) * inv)
		shift := float32(float64(bd[ch]) - float64(gd[ch])*mean[ch]*inv)
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			src := xd[base : base+hw]
			dst := od[base : base+hw]
			for i, v := range src {
				dst[i] = v*scale + shift
			}
		}
	}
	if eval {
		wsp.PutF64(mean)
		wsp.PutF64(variance)
	}
	return out
}

// forwardPerSample normalizes each batch element with its own per-channel
// (H, W) statistics.
func (b *BatchNorm) forwardPerSample(x, gamma, beta *tensor.Tensor, wsp *tensor.Workspace) *tensor.Tensor {
	b.savedValid = false
	return perSampleBNForward(x, gamma, beta, b.Eps, false, wsp)
}

// perSampleBNForward is the one per-sample inference normalization kernel,
// shared by BatchNorm (PerSample mode) and fusedBNReLU so the
// bit-compatibility contract lives in a single place: the accumulation and
// normalization arithmetic is element-for-element identical to the
// train-mode path at batch 1 (same summation order, same float64
// intermediates, same scale/shift folding), which is what makes batched
// tiled inference bit-identical to the serial tile loop. With relu the
// rectifier is applied in the same output pass to the very value the
// unfused pair would materialize: rectify, which maps NaN and −0 to +0
// exactly as ReLU's t > 0 ? t : 0 does.
func perSampleBNForward(x, gamma, beta *tensor.Tensor, eps float64, relu bool, wsp *tensor.Workspace) *tensor.Tensor {
	xs := x.Shape()
	n, c, hw := xs[0], xs[1], xs[2]*xs[3]
	cnt := float64(hw)
	out := wsp.NewTensorUninit(xs) // fully written below
	xd, od, gd, bd := x.Data(), out.Data(), gamma.Data(), beta.Data()
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * hw
			src := xd[base : base+hw]
			var s, sq float64
			for _, v := range src {
				fv := float64(v)
				s += fv
				sq += fv * fv
			}
			m := s / cnt
			variance := sq/cnt - m*m
			if variance < 0 {
				variance = 0
			}
			inv := 1 / math.Sqrt(variance+eps)
			scale := float32(float64(gd[ch]) * inv)
			shift := float32(float64(bd[ch]) - float64(gd[ch])*m*inv)
			normalizeRow(od[base:base+hw], src, scale, shift, relu)
		}
	}
	return out
}

// normalizeRow writes dst[i] = src[i]·scale + shift, rectified when relu.
// It stays out of line: inlined into perSampleBNForward, the loop would
// keep its index and bounds in stack slots.
//
//go:noinline
func normalizeRow(dst, src []float32, scale, shift float32, relu bool) {
	dst = dst[:len(src)]
	if relu {
		for i, v := range src {
			dst[i] = rectify(v*scale + shift)
		}
		return
	}
	for i, v := range src {
		dst[i] = v*scale + shift
	}
}

// rectify returns t > 0 ? t : 0, bit for bit — NaN and −0 give +0 —
// without a branch on the value: the positive finite floats and +Inf are
// exactly the bit patterns 0x00000001…0x7f800000, so one unsigned compare
// selects them, and the compiler lowers the select to a conditional move.
// Activations straddle zero at random, so a branch here mispredicts on
// about half the elements.
func rectify(t float32) float32 {
	b := math.Float32bits(t)
	if b-1 >= 0x7f800000 {
		b = 0
	}
	return math.Float32frombits(b)
}

// Backward implements graph.Op, using the standard batch-norm gradient:
//
//	dx̂ = dy·γ
//	dσ² = Σ dx̂·(x−μ)·(−½)(σ²+ε)^(−3/2)
//	dμ = Σ dx̂·(−1/√(σ²+ε)) + dσ²·Σ(−2(x−μ))/m
//	dx = dx̂/√(σ²+ε) + dσ²·2(x−μ)/m + dμ/m
func (b *BatchNorm) Backward(in []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	return b.BackwardScratch(in, out, gradOut, heapWS)
}

// BackwardScratch implements graph.ScratchOp.
func (b *BatchNorm) BackwardScratch(in []*tensor.Tensor, out, gradOut *tensor.Tensor, wsp *tensor.Workspace) []*tensor.Tensor {
	if !b.Train && b.PerSample {
		panic("nn: per-sample batchnorm is inference-only and has no backward pass")
	}
	x, gamma := in[0], in[1]
	xs := x.Shape()
	n, c, hw := xs[0], xs[1], xs[2]*xs[3]
	m := float64(n * hw)

	// Reuse the statistics saved by the matching training forward; fall
	// back to recomputation for standalone use or after an eval-mode
	// forward (which does not refresh them).
	var mean, variance []float64
	fresh := !b.savedValid || len(b.savedMean) != c
	if fresh {
		mean = wsp.GetF64(c)
		variance = wsp.GetF64(c)
		statsInto(x, mean, variance)
	} else {
		mean, variance = b.savedMean, b.savedVar
	}
	gradX := wsp.NewTensorUninit(xs) // every element assigned below
	gradGamma := wsp.NewTensorUninit(tensor.Shape{c})
	gradBeta := wsp.NewTensorUninit(tensor.Shape{c})
	xd, gd := x.Data(), gradOut.Data()

	for ch := 0; ch < c; ch++ {
		invStd := 1 / math.Sqrt(variance[ch]+b.Eps)
		g := float64(gamma.Data()[ch])

		// First pass: channel reductions.
		var sumDy, sumDyXhat float64
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for i := 0; i < hw; i++ {
				dy := float64(gd[base+i])
				xhat := (float64(xd[base+i]) - mean[ch]) * invStd
				sumDy += dy
				sumDyXhat += dy * xhat
			}
		}
		gradBeta.Data()[ch] = float32(sumDy)
		gradGamma.Data()[ch] = float32(sumDyXhat)

		// Second pass: dx = (γ·invStd/m)·(m·dy − Σdy − x̂·Σ(dy·x̂)).
		k := g * invStd / m
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for i := 0; i < hw; i++ {
				dy := float64(gd[base+i])
				xhat := (float64(xd[base+i]) - mean[ch]) * invStd
				gradX.Data()[base+i] = float32(k * (m*dy - sumDy - xhat*sumDyXhat))
			}
		}
	}
	if fresh {
		wsp.PutF64(mean)
		wsp.PutF64(variance)
	}
	return []*tensor.Tensor{gradX, gradGamma, gradBeta}
}

// FwdCost implements graph.Op: two reduction passes plus one scale pass.
func (b *BatchNorm) FwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost {
	return pointwiseCost(out.NumElements(), 3, 4, eb)
}

// BwdCost implements graph.Op.
func (b *BatchNorm) BwdCost(in []tensor.Shape, out tensor.Shape, eb int) graph.Cost {
	return pointwiseCost(out.NumElements(), 4, 6, eb)
}

// Categories implements graph.Op.
func (b *BatchNorm) Categories() (graph.Category, graph.Category) {
	return graph.CatForwardPointwise, graph.CatBackwardPointwise
}
