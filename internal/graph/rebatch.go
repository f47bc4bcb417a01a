package graph

import "fmt"

// InferenceCloner is implemented by ops whose training instance cannot be
// shared with an inference graph: either the op keeps per-instance kernel
// state (pooling index maps, dropout masks) that ties an instance to a
// single executor, or its inference semantics differ from its training
// semantics (batch normalization, dropout, quantized convolutions). CloneForInference
// returns a fresh instance with inference semantics and no shared mutable
// state, so the clone can execute concurrently with the original.
//
// Ops that do not implement the interface are treated as stateless and
// shared by reference between the training graph and its inference clones.
type InferenceCloner interface {
	Op
	CloneForInference() Op
}

// FuseRule examines one op node of the source graph during an inference
// clone and may substitute a fused kernel for a small pattern ending at
// that node. It returns the replacement op, the original-graph nodes that
// become the fused op's inputs, and the original nodes absorbed into the
// fusion (each must be consumed only within the pattern; they are not
// emitted into the clone). Returning a nil op with one input aliases the
// node to that input's clone — identity elision, e.g. inference-mode
// dropout. ok reports whether the rule fired.
//
// This is the TensorRT-style inference graph optimization pass: training
// graphs stay op-per-node for autodiff, the serving clone collapses
// memory-bound chains into single kernels.
type FuseRule func(n *Node) (op Op, inputs []*Node, absorbed []*Node, ok bool)

// CloneForInference clones the subgraph of g that computes root into a new
// graph planned for a batch of capacity batch, for serving:
//
//   - Every input node's leading dimension (the batch dimension, by the
//     repo-wide [N, ...] convention) is rebound to batch; op output shapes
//     are re-inferred through each op's OutShape, so the whole clone scales
//     consistently or the call fails.
//   - The clone records batch as its capacity: an executor runs it on feeds
//     of any n ≤ batch rows as an n-row prefix, every op output carrying n
//     rows, so one clone serves every batch size up to its capacity (a
//     directly built graph instead requires feeds of its exact shapes).
//   - Parameter nodes share the original value tensors by reference —
//     weights are read-only during inference, so replicas and batch-size
//     variants of one model cost no extra parameter memory. Training the
//     original model concurrently with executing a clone is a data race.
//   - Ops implementing InferenceCloner are replaced by fresh inference-mode
//     instances; all other ops are shared.
//   - Nodes not reachable from root (e.g. the loss head and its label and
//     weight-map inputs) are pruned, so inference feeds only the inputs it
//     actually uses and executes no training-only kernels.
//   - When fuse is non-nil, matching op patterns are collapsed into fused
//     kernels (and identity ops elided) as the clone is built.
//
// The returned map translates original nodes to their clones, so callers
// can carry handles (images input, logits output) across the clone. Nodes
// absorbed into a fusion map to the fused node, whose value is the
// pattern's final output, not theirs.
func CloneForInference(g *Graph, root *Node, batch int, fuse FuseRule) (ng *Graph, mapping map[*Node]*Node, err error) {
	if batch < 1 {
		return nil, nil, fmt.Errorf("graph: clone batch must be ≥ 1, got %d", batch)
	}
	if root == nil {
		return nil, nil, fmt.Errorf("graph: clone root is nil")
	}
	reach := make([]bool, len(g.nodes))
	var mark func(*Node)
	mark = func(n *Node) {
		if reach[n.ID] {
			return
		}
		reach[n.ID] = true
		for _, in := range n.Inputs {
			mark(in)
		}
	}
	mark(root)

	// Apply panics on shape errors (graph-construction contract); surface
	// them as errors here, since a bad batch rebinding is a caller mistake,
	// not a programming error in the model builder.
	defer func() {
		if r := recover(); r != nil {
			ng, mapping = nil, nil
			err = fmt.Errorf("graph: rebatch to %d failed: %v", batch, r)
		}
	}()

	// Fusion planning pass: decide substitutions on the original graph so
	// absorbed interior nodes are known before they would be emitted.
	type plan struct {
		op     Op // nil → alias to inputs[0]'s clone
		inputs []*Node
	}
	var plans map[*Node]plan
	absorbed := make(map[*Node]*Node) // absorbed interior node → fusing node
	if fuse != nil {
		plans = make(map[*Node]plan)
		for _, n := range g.nodes {
			if !reach[n.ID] || n.Kind != KindOp {
				continue
			}
			op, inputs, abs, ok := fuse(n)
			if !ok {
				continue
			}
			valid := true
			for _, a := range abs {
				// An absorbed node must live entirely inside the pattern: one
				// consumer, not already claimed by another fusion, and never
				// the node whose value the caller reads.
				if a.Consumers() != 1 || a == root || absorbed[a] != nil {
					valid = false
					break
				}
			}
			if !valid {
				continue
			}
			plans[n] = plan{op: op, inputs: inputs}
			for _, a := range abs {
				absorbed[a] = n
			}
		}
	}

	ng = New()
	ng.capacity = batch
	mapping = make(map[*Node]*Node, len(g.nodes))
	for _, n := range g.nodes {
		if !reach[n.ID] || absorbed[n] != nil {
			continue
		}
		switch n.Kind {
		case KindInput:
			shape := n.Shape.Clone()
			shape[0] = batch
			mapping[n] = ng.Input(n.Label, shape)
		case KindParam:
			if n.Value == nil {
				return nil, nil, fmt.Errorf("graph: cannot clone symbolic parameter %q for inference", n.Label)
			}
			mapping[n] = ng.Param(n.Label, n.Value)
		case KindOp:
			op := n.Op
			ins := n.Inputs
			if p, ok := plans[n]; ok {
				if p.op == nil {
					// Identity elision: the node is its input's clone.
					mapping[n] = mapping[p.inputs[0]]
					continue
				}
				op, ins = p.op, p.inputs
			} else if ic, ok := op.(InferenceCloner); ok {
				op = ic.CloneForInference()
			}
			mins := make([]*Node, len(ins))
			for i, in := range ins {
				mins[i] = mapping[in]
			}
			mapping[n] = ng.Apply(op, mins...)
		}
	}
	// Absorbed nodes resolve to the node that fused them, so handle
	// translation keeps working for pattern interiors.
	for a, n := range absorbed {
		mapping[a] = mapping[n]
	}
	return ng, mapping, nil
}

// CloneExitBranch is CloneForInference's exit-branch hook: it clones only
// the prefix subgraph that computes tap — an intermediate node on root's
// subgraph, such as a segmentation encoder's first-stage output — so an
// adaptive-compute serving path can evaluate a cheap confidence head
// without executing the deep decoder. The tap must be an ancestor of root
// (or root itself); cloning an off-path node would mean the "cheap prefix"
// shares no work with the full decode, which is a caller bug, not a
// configuration.
//
// The clone shares parameters by reference with the source graph exactly
// like CloneForInference, so a full-decode clone and its exit branch stay
// weight-consistent by construction.
func CloneExitBranch(g *Graph, root, tap *Node, batch int, fuse FuseRule) (*Graph, map[*Node]*Node, error) {
	if tap == nil {
		return nil, nil, fmt.Errorf("graph: exit tap is nil")
	}
	if root == nil {
		return nil, nil, fmt.Errorf("graph: exit root is nil")
	}
	// Reachability by identity, not ID: a node of a different graph can
	// carry an in-range ID, and cloning it would silently build the exit
	// branch over foreign weights.
	reach := make(map[*Node]bool, len(g.nodes))
	var mark func(*Node)
	mark = func(n *Node) {
		if reach[n] {
			return
		}
		reach[n] = true
		for _, in := range n.Inputs {
			mark(in)
		}
	}
	mark(root)
	if !reach[tap] {
		return nil, nil, fmt.Errorf("graph: exit tap %q (node %d) is not on the root's subgraph", tap.Label, tap.ID)
	}
	return CloneForInference(g, tap, batch, fuse)
}
