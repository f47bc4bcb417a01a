package graph

import (
	"fmt"
	"math/rand"

	"repro/internal/hpfloat"
	"repro/internal/tensor"
)

// Precision selects the activation/gradient storage precision of an
// execution. FP16 keeps FP32 master weights (mixed precision, as on V100
// Tensor Cores) and rounds every op output and gradient through binary16.
// INT8 is inference-only: activations flow between ops in FP32, and the
// quantization happens inside the inference convolution kernels (per-output-
// channel weight scales, dynamic per-tensor activation scales — see
// nn.MarkInt8); the executor itself treats INT8 exactly like FP32.
type Precision int

const (
	FP32 Precision = iota
	FP16
	INT8
)

// Bytes returns the storage width of the precision in bytes. INT8 reports
// the weight-code width; activations between kernels remain FP32.
func (p Precision) Bytes() int {
	switch p {
	case FP16:
		return 2
	case INT8:
		return 1
	}
	return 4
}

// String names the precision as the paper does.
func (p Precision) String() string {
	switch p {
	case FP16:
		return "FP16"
	case INT8:
		return "INT8"
	}
	return "FP32"
}

// Executor evaluates a graph with a dynamic ready-queue scheduler: an
// operation runs as soon as all of its inputs have been produced, and when
// several operations are ready at once the choice among them is
// deliberately randomized (per-executor seed). That models TensorFlow's
// independent per-process scheduling, which is exactly what forces the
// Horovod control plane to negotiate a total order for collectives.
//
// An Executor built with NewPooledExecutor is additionally a *reusing*
// executor: activation and gradient storage is drawn from a tensor.Pool and
// kept alive across Run calls, buffer lifetimes are planned from the
// topological order so dead activations are recycled mid-backward-pass, and
// everything is released back to the pool at the start of the next Forward
// (or on Release). This is the workspace model cuDNN-grade runtimes use,
// and it is what keeps the training hot path FLOP-bound instead of
// allocator-bound.
//
// Pooled lifetime contract: with a pooled executor, Value(n) for op nodes
// is valid only until Backward (which recycles dead activations) or the
// next Forward; Grad(n) for parameter and input nodes is valid until the
// next Forward. Ops executed by any executor must return freshly-allocated
// tensors that alias neither their inputs nor earlier outputs (all ops in
// internal/nn and internal/loss do).
type Executor struct {
	g         *Graph
	precision Precision
	rng       *rand.Rand

	// OnParamGrad, if non-nil, is invoked as each parameter gradient
	// becomes final during the backward pass — the hook Horovod uses to
	// enqueue all-reduce operations while back-propagation continues.
	OnParamGrad func(param *Node, grad *tensor.Tensor)

	values []*tensor.Tensor // forward activations by node ID
	grads  []*tensor.Tensor // gradients by node ID
	scale  float32          // loss scale applied at the loss root (FP16)

	pool *tensor.Pool      // nil → legacy allocate-per-run execution
	ws   *tensor.Workspace // scratch handle over pool for ScratchOps

	// valueOwned[i] / gradOwned[i]: the tensor came out of ws (a scratch
	// dispatch, or the executor's own seed gradient), so it goes back to
	// the pool when dead. Feeds, parameters and whatever a plain
	// Forward/Backward allocated on the heap are never recycled — the pool
	// takes back only what it handed out, so it cannot grow per run.
	valueOwned []bool
	gradOwned  []bool

	// Static forward plan, built once (graphs are immutable once executed).
	consumers   [][]*Node
	pendingInit []int

	// Cached backward plan, keyed by root.
	planRoot *Node
	bwdInit  []int // reachable-consumer count per node

	// Reusable per-run scratch.
	pending []int
	bwdCons []int
	done    []bool
	ready   []*Node
	insBuf  []*tensor.Tensor
}

// NewExecutor returns a legacy (allocate-per-run) executor for g. seed
// controls ready-queue tie-breaking; two executors with the same seed
// schedule identically. Tensors it produces are never recycled, so values
// and gradients stay valid as long as the caller holds them.
func NewExecutor(g *Graph, precision Precision, seed int64) *Executor {
	return &Executor{
		g:         g,
		precision: precision,
		rng:       rand.New(rand.NewSource(seed)),
		scale:     1,
	}
}

// NewPooledExecutor returns a reusing executor whose activation, gradient,
// and kernel-scratch storage is drawn from pool (nil → a fresh private
// pool). Create one executor per rank and reuse it across steps; Reseed
// restores per-step scheduling randomization.
func NewPooledExecutor(g *Graph, precision Precision, seed int64, pool *tensor.Pool) *Executor {
	if pool == nil {
		pool = tensor.NewPool()
	}
	e := NewExecutor(g, precision, seed)
	e.pool = pool
	e.ws = tensor.NewWorkspace(pool)
	return e
}

// Pooled reports whether this executor recycles buffers through a pool.
func (e *Executor) Pooled() bool { return e.pool != nil }

// PoolStats returns the backing pool's counters (zero value if unpooled).
func (e *Executor) PoolStats() tensor.PoolStats {
	if e.pool == nil {
		return tensor.PoolStats{}
	}
	return e.pool.Stats()
}

// Reseed re-randomizes ready-queue tie-breaking for the next run, so a
// persistent per-rank executor still schedules independently every step.
// The generator is reseeded in place — the same sequence a fresh
// rand.NewSource(seed) would give, without allocating one per step.
func (e *Executor) Reseed(seed int64) {
	e.rng.Seed(seed)
}

// Precision returns the executor's storage precision.
func (e *Executor) Precision() Precision { return e.precision }

// SetLossScale sets the multiplier applied to the seed gradient at the loss
// root (mixed-precision loss scaling). The caller divides it back out of
// parameter gradients (see hpfloat.LossScaler).
func (e *Executor) SetLossScale(s float64) { e.scale = float32(s) }

// buildPlan constructs the static forward plan: per-edge consumer adjacency
// (an op consuming a node twice needs two decrements before it is ready)
// and initial unresolved-input counts.
func (e *Executor) buildPlan() {
	n := len(e.g.nodes)
	e.consumers = make([][]*Node, n)
	e.pendingInit = make([]int, n)
	for _, node := range e.g.nodes {
		if node.Kind != KindOp {
			continue
		}
		e.pendingInit[node.ID] = len(node.Inputs)
		for _, in := range node.Inputs {
			e.consumers[in.ID] = append(e.consumers[in.ID], node)
		}
	}
	e.values = make([]*tensor.Tensor, n)
	e.grads = make([]*tensor.Tensor, n)
	e.valueOwned = make([]bool, n)
	e.gradOwned = make([]bool, n)
	e.pending = make([]int, n)
	e.bwdCons = make([]int, n)
	e.done = make([]bool, n)
}

// reset releases every executor-owned buffer from the previous run back to
// the pool and clears per-run state.
func (e *Executor) reset() {
	for i := range e.values {
		if e.valueOwned[i] && e.values[i] != nil {
			e.pool.ReleaseTensor(e.values[i])
		}
		e.values[i] = nil
		e.valueOwned[i] = false
		if e.gradOwned[i] && e.grads[i] != nil {
			e.pool.ReleaseTensor(e.grads[i])
		}
		e.grads[i] = nil
		e.gradOwned[i] = false
	}
}

// Release returns all executor-owned buffers to the pool. Call it when a
// pooled executor is retired while its pool lives on (e.g. shared per-rank
// pools); using Value/Grad afterwards returns nil.
func (e *Executor) Release() {
	if e.pool == nil || e.values == nil {
		return
	}
	e.reset()
}

func (e *Executor) releaseValue(id int) {
	if e.valueOwned[id] && e.values[id] != nil {
		e.pool.ReleaseTensor(e.values[id])
		e.values[id] = nil
		e.valueOwned[id] = false
	}
}

func (e *Executor) releaseGrad(id int) {
	if e.gradOwned[id] && e.grads[id] != nil {
		e.pool.ReleaseTensor(e.grads[id])
		e.grads[id] = nil
		e.gradOwned[id] = false
	}
}

// runForward dispatches an op through its scratch-aware path when both the
// op and the executor support it; pooled reports whether the output came
// from the executor's workspace.
func (e *Executor) runForward(node *Node, ins []*tensor.Tensor) (out *tensor.Tensor, pooled bool) {
	if e.ws != nil {
		if so, ok := node.Op.(ForwardScratchOp); ok {
			return so.ForwardScratch(ins, e.ws), true
		}
	}
	return node.Op.Forward(ins), false
}

func (e *Executor) runBackward(node *Node, ins []*tensor.Tensor, out, gradOut *tensor.Tensor) (grads []*tensor.Tensor, pooled bool) {
	if e.ws != nil {
		if so, ok := node.Op.(ScratchOp); ok {
			return so.BackwardScratch(ins, out, gradOut, e.ws), true
		}
	}
	return node.Op.Backward(ins, out, gradOut), false
}

// fits reports whether s is the shape want, or — in an n-row prefix run,
// rows > 0 — want with its leading dimension replaced by rows.
func fits(s, want tensor.Shape, rows int) bool {
	if rows == 0 {
		return s.Equal(want)
	}
	return len(s) == len(want) && len(s) > 0 && s[0] == rows && s[1:].Equal(want[1:])
}

// Forward runs the graph on the given feeds (one tensor per input node) and
// returns the value of every node. Feeds for all inputs are required. On a
// pooled executor this also recycles all buffers from the previous run.
//
// A directly built graph takes feeds of exactly its input shapes. An
// inference clone (CloneForInference) takes feeds of any n rows up to its
// capacity, the same n for every input, and runs them as an n-row prefix:
// every op output carries n rows, and nothing is done for the rows past n.
func (e *Executor) Forward(feeds map[*Node]*tensor.Tensor) error {
	if e.consumers == nil {
		e.buildPlan()
	}
	if e.pool != nil {
		e.reset()
	} else {
		n := len(e.g.nodes)
		e.values = make([]*tensor.Tensor, n)
		e.grads = make([]*tensor.Tensor, n)
	}
	copy(e.pending, e.pendingInit)
	ready := e.ready[:0]

	rows := 0 // the feeds' batch on an inference clone
	for _, node := range e.g.nodes {
		switch node.Kind {
		case KindInput:
			v, ok := feeds[node]
			if !ok {
				return fmt.Errorf("graph: missing feed for input %q", node.Label)
			}
			vs := v.Shape()
			if e.g.capacity > 0 && rows == 0 && vs.Rank() > 0 {
				if vs[0] < 1 || vs[0] > e.g.capacity {
					return fmt.Errorf("graph: feed for %q has %d rows, outside the clone's capacity [1, %d]",
						node.Label, vs[0], e.g.capacity)
				}
				rows = vs[0]
			}
			if !fits(vs, node.Shape, rows) {
				return fmt.Errorf("graph: feed for %q has shape %v, want %v",
					node.Label, vs, node.Shape)
			}
			e.values[node.ID] = v
		case KindParam:
			if node.Value == nil {
				return fmt.Errorf("graph: parameter %q has no value (symbolic graph executed?)", node.Label)
			}
			e.values[node.ID] = node.Value
		}
	}
	if e.ws != nil {
		e.ws.SetRows(rows, e.g.capacity)
	}
	// Seed readiness: every op edge from an already-resolved node counts.
	for _, node := range e.g.nodes {
		if node.Kind == KindOp {
			for _, in := range node.Inputs {
				if e.values[in.ID] != nil {
					e.pending[node.ID]--
				}
			}
			if e.pending[node.ID] == 0 {
				ready = append(ready, node)
			}
		}
	}

	for len(ready) > 0 {
		// Dynamic scheduling: pick a random ready op.
		i := e.rng.Intn(len(ready))
		node := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]

		ins := e.gatherInputs(node)
		out, pooled := e.runForward(node, ins)
		if !fits(out.Shape(), node.Shape, rows) {
			return fmt.Errorf("graph: op %q produced shape %v, inferred %v",
				node.Label, out.Shape(), node.Shape)
		}
		if e.precision == FP16 {
			hpfloat.RoundTrip(out.Data())
		}
		e.values[node.ID], e.valueOwned[node.ID] = out, pooled

		for _, m := range e.consumers[node.ID] {
			e.pending[m.ID]--
			if e.pending[m.ID] == 0 {
				ready = append(ready, m)
			}
		}
	}
	e.ready = ready[:0]

	for _, node := range e.g.nodes {
		if node.Kind == KindOp && e.values[node.ID] == nil {
			return fmt.Errorf("graph: op %q never became ready (cycle?)", node.Label)
		}
	}
	return nil
}

// gatherInputs assembles the input tensors of an op into a reusable buffer.
func (e *Executor) gatherInputs(node *Node) []*tensor.Tensor {
	ins := e.insBuf[:0]
	for _, in := range node.Inputs {
		ins = append(ins, e.values[in.ID])
	}
	e.insBuf = ins[:0]
	return ins
}

// Value returns the forward value of a node after Forward. On a pooled
// executor, op-node values are recycled during Backward — read them between
// Forward and Backward.
func (e *Executor) Value(n *Node) *tensor.Tensor { return e.values[n.ID] }

// buildBackwardPlan computes, for the given root, how many consumers of
// each node are reachable from root — the count used both for gradient
// accumulation bookkeeping and for activation lifetime planning.
func (e *Executor) buildBackwardPlan(root *Node) {
	n := len(e.g.nodes)
	e.bwdInit = make([]int, n)
	reach := make([]bool, n)
	var mark func(*Node)
	mark = func(nd *Node) {
		if reach[nd.ID] {
			return
		}
		reach[nd.ID] = true
		for _, in := range nd.Inputs {
			mark(in)
		}
	}
	mark(root)
	for _, nd := range e.g.nodes {
		if !reach[nd.ID] || nd.Kind != KindOp {
			continue
		}
		for _, in := range nd.Inputs {
			e.bwdInit[in.ID]++
		}
	}
	e.planRoot = root
}

// Backward runs reverse-mode differentiation from root (typically the
// scalar loss node), producing gradients for every parameter. Parameter
// gradients are reported through OnParamGrad in completion order. On a
// pooled executor, activations and intermediate gradients are returned to
// the pool as soon as the lifetime plan proves them dead.
func (e *Executor) Backward(root *Node) error {
	if e.values == nil || e.values[root.ID] == nil {
		return fmt.Errorf("graph: Backward before Forward")
	}
	if e.planRoot != root {
		e.buildBackwardPlan(root)
	}
	if e.pool == nil {
		// Legacy semantics: each Backward starts from fresh gradient slots.
		e.grads = make([]*tensor.Tensor, len(e.g.nodes))
	}
	seed := e.seedGrad(root.Shape)
	e.grads[root.ID] = seed
	if e.pool != nil {
		e.gradOwned[root.ID] = true
	}

	copy(e.bwdCons, e.bwdInit)
	pendingConsumers := e.bwdCons
	for i := range e.done {
		e.done[i] = false
	}
	done := e.done

	ready := e.ready[:0]
	ready = append(ready, root)
	if pendingConsumers[root.ID] != 0 {
		// Root feeding other reachable nodes would mean root isn't the sink.
		return fmt.Errorf("graph: backward root %q has downstream consumers", root.Label)
	}

	for len(ready) > 0 {
		i := e.rng.Intn(len(ready))
		nd := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		if done[nd.ID] {
			continue
		}
		done[nd.ID] = true

		g := e.grads[nd.ID]
		if g == nil {
			// Node reachable but received no gradient (all consumers were
			// non-differentiable in this slot). Propagate "no gradient" so
			// upstream bookkeeping still completes.
			if nd.Kind == KindOp {
				for _, in := range nd.Inputs {
					pendingConsumers[in.ID]--
					if pendingConsumers[in.ID] == 0 {
						ready = append(ready, in)
					}
				}
				// Its activation is dead: every reachable consumer has run.
				e.releaseValue(nd.ID)
			}
			continue
		}

		switch nd.Kind {
		case KindParam:
			if e.OnParamGrad != nil {
				e.OnParamGrad(nd, g)
			}
			continue
		case KindInput:
			continue
		}

		ins := e.gatherInputs(nd)
		inGrads, pooled := e.runBackward(nd, ins, e.values[nd.ID], g)
		if len(inGrads) != len(nd.Inputs) {
			return fmt.Errorf("graph: op %q returned %d grads for %d inputs",
				nd.Label, len(inGrads), len(nd.Inputs))
		}
		for j, ig := range inGrads {
			in := nd.Inputs[j]
			pendingConsumers[in.ID]--
			if ig != nil {
				if e.precision == FP16 && in.Kind != KindParam {
					// Parameter gradients stay FP32 (master accumulation);
					// activation gradients are stored in FP16.
					hpfloat.RoundTrip(ig.Data())
				}
				if e.grads[in.ID] == nil {
					e.grads[in.ID], e.gradOwned[in.ID] = ig, pooled
				} else {
					tensor.AddInPlace(e.grads[in.ID], ig)
					if pooled {
						e.pool.ReleaseTensor(ig)
					}
				}
			}
			if pendingConsumers[in.ID] == 0 {
				ready = append(ready, in)
			}
		}
		// Lifetime plan: this op's own gradient has been fully consumed and
		// its activation has no remaining backward readers — recycle both.
		e.releaseGrad(nd.ID)
		e.releaseValue(nd.ID)
	}
	e.ready = ready[:0]
	return nil
}

// seedGrad builds the root gradient tensor filled with the loss scale.
func (e *Executor) seedGrad(shape tensor.Shape) *tensor.Tensor {
	if e.pool == nil {
		return tensor.Full(shape, e.scale)
	}
	t := e.pool.NewTensorUninit(shape)
	t.Fill(e.scale)
	return t
}

// Grad returns the accumulated gradient of a node after Backward (nil if
// the node received none). On a pooled executor only parameter and input
// gradients survive the pass; interior op gradients are recycled.
func (e *Executor) Grad(n *Node) *tensor.Tensor {
	if e.grads == nil {
		return nil
	}
	return e.grads[n.ID]
}

// ParamGrads returns a map from parameter node to gradient after Backward.
func (e *Executor) ParamGrads() map[*Node]*tensor.Tensor {
	out := make(map[*Node]*tensor.Tensor, len(e.g.params))
	for _, p := range e.g.params {
		if g := e.Grad(p); g != nil {
			out[p] = g
		}
	}
	return out
}
