// Package opt implements the optimizers used in the paper: SGD with
// momentum, Adam (used for Tiramisu), the LARC layer-wise adaptive rate
// controller (Section V-B2) that makes large-batch training converge, and
// the gradient-lag wrapper (Section V-B4) that lets the top layer's
// all-reduce overlap with the next step's computation.
package opt

import (
	"math"

	"repro/internal/tensor"
)

// Param is one trainable tensor plus its current gradient, as presented to
// an optimizer step. Name identifies the layer for per-layer (LARC) state.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// Optimizer updates parameters from gradients.
type Optimizer interface {
	// Step applies one update. Gradients are not modified.
	Step(params []Param)
	// LR returns the current base learning rate.
	LR() float64
	// SetLR changes the base learning rate (for warmup/decay schedules).
	SetLR(lr float64)
}

// SGD is stochastic gradient descent with (optionally Nesterov-free)
// momentum and L2 weight decay.
type SGD struct {
	Rate        float64
	Momentum    float64
	WeightDecay float64
	velocity    map[string][]float32
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{Rate: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[string][]float32)}
}

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.Rate }

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.Rate = lr }

// Step implements Optimizer.
func (s *SGD) Step(params []Param) {
	for _, p := range params {
		v := s.velocity[p.Name]
		if v == nil {
			v = make([]float32, p.Value.NumElements())
			s.velocity[p.Name] = v
		}
		w, g := p.Value.Data(), p.Grad.Data()
		mom := float32(s.Momentum)
		lr := float32(s.Rate)
		wd := float32(s.WeightDecay)
		for i := range w {
			grad := g[i] + wd*w[i]
			v[i] = mom*v[i] + grad
			w[i] -= lr * v[i]
		}
	}
}

// Adam is adaptive moment estimation (Kingma & Ba), the optimizer the paper
// uses for the Tiramisu network.
type Adam struct {
	Rate, Beta1, Beta2, Eps float64
	step                    int
	m, v                    map[string][]float32
}

// NewAdam returns Adam with the conventional defaults β1=0.9, β2=0.999.
func NewAdam(lr float64) *Adam {
	return &Adam{Rate: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[string][]float32), v: make(map[string][]float32)}
}

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.Rate }

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.Rate = lr }

// Step implements Optimizer.
func (a *Adam) Step(params []Param) {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range params {
		m := a.m[p.Name]
		v := a.v[p.Name]
		if m == nil {
			m = make([]float32, p.Value.NumElements())
			v = make([]float32, p.Value.NumElements())
			a.m[p.Name], a.v[p.Name] = m, v
		}
		w, g := p.Value.Data(), p.Grad.Data()
		b1, b2 := float32(a.Beta1), float32(a.Beta2)
		for i := range w {
			m[i] = b1*m[i] + (1-b1)*g[i]
			v[i] = b2*v[i] + (1-b2)*g[i]*g[i]
			mhat := float64(m[i]) / bc1
			vhat := float64(v[i]) / bc2
			w[i] -= float32(a.Rate * mhat / (math.Sqrt(vhat) + a.Eps))
		}
	}
}

// LARC wraps a base optimizer with Layer-wise Adaptive Rate Control
// (Ginsburg, Gitman & Kuchaiev): each layer's gradient is rescaled so the
// implied update magnitude stays at Trust·‖w‖/‖g‖ relative to the weight
// norm, clipped so the effective rate never exceeds the base rate. Unlike
// LARS, no warmup schedule is required — the property the paper highlights.
type LARC struct {
	Base  Optimizer
	Trust float64 // η, typically 0.001–0.02
	Eps   float64 // numerical floor for norms
	// Clip selects clipping mode (true, the paper's usage): effective layer
	// rate = min(Trust·‖w‖/‖g‖, lr). False selects pure scaling mode.
	Clip bool

	// scaled and scratch are Step's reused storage: the parameter list
	// handed to the base optimizer and, per parameter name, the rescaled
	// gradient copy, so a steady-state step allocates nothing.
	scaled  []Param
	scratch map[string]*tensor.Tensor
}

// NewLARC wraps base with LARC using the given trust coefficient.
func NewLARC(base Optimizer, trust float64) *LARC {
	return &LARC{Base: base, Trust: trust, Eps: 1e-8, Clip: true}
}

// LR implements Optimizer.
func (l *LARC) LR() float64 { return l.Base.LR() }

// SetLR implements Optimizer.
func (l *LARC) SetLR(lr float64) { l.Base.SetLR(lr) }

// Step implements Optimizer. It rescales a copy of each gradient so the
// base optimizer (at its own learning rate) realizes the LARC-adapted rate.
func (l *LARC) Step(params []Param) {
	lr := l.Base.LR()
	if cap(l.scaled) < len(params) {
		l.scaled = make([]Param, len(params))
	}
	scaled := l.scaled[:len(params)]
	if l.scratch == nil {
		l.scratch = make(map[string]*tensor.Tensor)
	}
	for i, p := range params {
		wNorm := tensor.L2Norm(p.Value.Data())
		gNorm := tensor.L2Norm(p.Grad.Data())
		ratio := 1.0
		if gNorm > l.Eps && wNorm > l.Eps {
			localRate := l.Trust * wNorm / gNorm
			if l.Clip {
				// Effective rate min(localRate, lr) → scale grad by ratio.
				ratio = math.Min(localRate, lr) / lr
			} else {
				ratio = localRate / lr
			}
		}
		g := cloneInto(l.scratch[p.Name], p.Grad)
		l.scratch[p.Name] = g
		tensor.Scale(float32(ratio), g.Data())
		scaled[i] = Param{Name: p.Name, Value: p.Value, Grad: g}
	}
	l.Base.Step(scaled)
}

// LayerRate reports the effective LARC rate for a single layer, exposed for
// tests and diagnostics.
func (l *LARC) LayerRate(p Param) float64 {
	wNorm := tensor.L2Norm(p.Value.Data())
	gNorm := tensor.L2Norm(p.Grad.Data())
	if gNorm <= l.Eps || wNorm <= l.Eps {
		return l.Base.LR()
	}
	localRate := l.Trust * wNorm / gNorm
	if l.Clip {
		return math.Min(localRate, l.Base.LR())
	}
	return localRate
}

// LagN wraps an optimizer so that updates at step t use the gradients from
// step t−Lag (the paper's "gradient lag", Section V-B4). With Lag=1 the
// top layer's all-reduce no longer serializes against the next forward
// pass, and Horovod can batch tensors across the step boundary. The first
// Lag steps apply no update (gradients are only enqueued).
type LagN struct {
	Base Optimizer
	Lag  int
	q    [][]Param
}

// NewLag wraps base with an n-step gradient lag. n=0 is pass-through.
func NewLag(base Optimizer, n int) *LagN {
	if n < 0 {
		panic("opt: negative lag")
	}
	return &LagN{Base: base, Lag: n}
}

// LR implements Optimizer.
func (l *LagN) LR() float64 { return l.Base.LR() }

// SetLR implements Optimizer.
func (l *LagN) SetLR(lr float64) { l.Base.SetLR(lr) }

// Step implements Optimizer: apply the gradients from Lag steps ago and
// enqueue this step's (snapshotted, so the caller may reuse buffers). The
// first Lag steps only enqueue; after them, the set just applied lends its
// storage to this step's snapshot, so a steady-state step allocates nothing.
func (l *LagN) Step(params []Param) {
	if l.Lag == 0 {
		l.Base.Step(params)
		return
	}
	var set []Param
	if len(l.q) >= l.Lag {
		set = l.q[0]
		l.Base.Step(set)
		copy(l.q, l.q[1:])
		l.q = l.q[:len(l.q)-1]
	}
	if len(set) != len(params) {
		set = make([]Param, len(params))
	}
	for i, p := range params {
		set[i] = Param{Name: p.Name, Value: p.Value, Grad: cloneInto(set[i].Grad, p.Grad)}
	}
	l.q = append(l.q, set)
}

// cloneInto copies src into dst and returns dst when their shapes match,
// and otherwise returns a fresh clone of src.
func cloneInto(dst, src *tensor.Tensor) *tensor.Tensor {
	if dst == nil || !dst.Shape().Equal(src.Shape()) {
		return src.Clone()
	}
	copy(dst.Data(), src.Data())
	return dst
}

// PendingSteps reports how many gradient sets are queued but unapplied.
func (l *LagN) PendingSteps() int { return len(l.q) }

// PolynomialDecay returns a learning-rate schedule lr(step) decaying from
// base to end over totalSteps with the given power — the standard schedule
// for large-batch segmentation training.
func PolynomialDecay(base, end float64, totalSteps int, power float64) func(step int) float64 {
	return func(step int) float64 {
		if step >= totalSteps {
			return end
		}
		frac := 1 - float64(step)/float64(totalSteps)
		return end + (base-end)*math.Pow(frac, power)
	}
}

// LinearWarmup wraps a schedule with a linear ramp over warmupSteps — kept
// for comparison even though LARC's selling point is not needing it.
func LinearWarmup(sched func(int) float64, warmupSteps int) func(step int) float64 {
	return func(step int) float64 {
		lr := sched(step)
		if step < warmupSteps {
			return lr * float64(step+1) / float64(warmupSteps)
		}
		return lr
	}
}
