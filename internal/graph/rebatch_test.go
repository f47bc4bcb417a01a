package graph_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/loss"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildBNNet constructs a conv→BN→ReLU→conv→loss network (BatchNorm and a
// loss head are exactly the pieces inference cloning must handle: the first
// needs per-sample semantics, the second must be pruned).
func buildBNNet(seed int64) (g *graph.Graph, x, logits, root *graph.Node) {
	rng := rand.New(rand.NewSource(seed))
	g = graph.New()
	x = g.Input("x", tensor.NCHW(1, 2, 4, 4))
	lb := g.Input("labels", tensor.Shape{1, 4, 4})
	wt := g.Input("weights", tensor.Shape{1, 4, 4})
	w1 := g.Param("w1", tensor.HeInit(tensor.OIHW(3, 2, 3, 3), rng))
	gamma := g.Param("gamma", tensor.Full(tensor.Shape{3}, 1))
	beta := g.Param("beta", tensor.New(tensor.Shape{3}))
	w2 := g.Param("w2", tensor.HeInit(tensor.OIHW(3, 3, 1, 1), rng))
	h := g.Apply(nn.NewConv2D(1, 1, 1), x, w1)
	h = g.Apply(nn.NewBatchNorm(1e-5, 0.1), h, gamma, beta)
	h = g.Apply(nn.ReLU{}, h)
	logits = g.Apply(nn.NewConv2D(1, 0, 1), h, w2)
	root = g.Apply(loss.WeightedSoftmaxCE{}, logits, lb, wt)
	return g, x, logits, root
}

func TestCloneForInferencePrunesAndRebinds(t *testing.T) {
	g, x, logits, _ := buildBNNet(3)
	ng, m, err := graph.CloneForInference(g, logits, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ng.Nodes()) >= len(g.Nodes()) {
		t.Errorf("clone has %d nodes, original %d: loss head not pruned", len(ng.Nodes()), len(g.Nodes()))
	}
	if got := len(ng.Inputs()); got != 1 {
		t.Errorf("clone has %d inputs, want 1 (labels/weights pruned)", got)
	}
	ci := m[x]
	if ci == nil || ci.Shape[0] != 5 {
		t.Fatalf("cloned input shape %v, want batch 5", ci.Shape)
	}
	cl := m[logits]
	if cl == nil || cl.Shape[0] != 5 {
		t.Fatalf("cloned logits shape %v, want batch 5", cl.Shape)
	}
	// Parameters must be shared by reference, not copied.
	for i, p := range ng.Params() {
		if p.Value != g.Params()[i].Value {
			t.Errorf("param %q copied instead of shared", p.Label)
		}
	}
	// Stateful ops must be fresh instances; the clone runs independently.
	for _, n := range g.Nodes() {
		cn, ok := m[n]
		if !ok || n.Kind != graph.KindOp {
			continue
		}
		if _, stateful := n.Op.(interface{ CloneForInference() graph.Op }); stateful && cn.Op == n.Op {
			t.Errorf("stateful op %q shared with clone", n.Label)
		}
	}
}

// TestCloneForInferenceBatchParity is the core serving property: one
// batch-N forward of the inference clone produces, per element, exactly the
// batch-1 training-graph forward of that element.
func TestCloneForInferenceBatchParity(t *testing.T) {
	g, x, logits, _ := buildBNNet(7)
	const batch = 3
	ng, m, err := graph.CloneForInference(g, logits, batch, nil)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	batched := tensor.RandNormal(tensor.NCHW(batch, 2, 4, 4), 0, 1, rng)
	ex := graph.NewPooledExecutor(ng, graph.FP32, 1, nil)
	if err := ex.Forward(map[*graph.Node]*tensor.Tensor{m[x]: batched}); err != nil {
		t.Fatal(err)
	}
	got := ex.Value(m[logits])
	per := got.NumElements() / batch
	perIn := batched.NumElements() / batch

	// Reference: each element through the original training graph at batch
	// 1 (train-mode BN at batch 1 == per-sample inference BN, bit for bit).
	lb := tensor.New(tensor.Shape{1, 4, 4})
	wt := tensor.Ones(tensor.Shape{1, 4, 4})
	for b := 0; b < batch; b++ {
		one := tensor.FromSlice(tensor.NCHW(1, 2, 4, 4), batched.Data()[b*perIn:(b+1)*perIn])
		// labels/weights still required by the unpruned training graph
		lbN, wtN := g.Inputs()[1], g.Inputs()[2]
		ref := graph.NewExecutor(g, graph.FP32, int64(b))
		if err := ref.Forward(map[*graph.Node]*tensor.Tensor{x: one, lbN: lb, wtN: wt}); err != nil {
			t.Fatal(err)
		}
		want := ref.Value(logits).Data()
		for i, v := range want {
			if got.Data()[b*per+i] != v {
				t.Fatalf("batch element %d diverges at %d: got %v want %v", b, i, got.Data()[b*per+i], v)
			}
		}
	}
}

// TestCloneRunsPrefixBatches pins the capacity contract: one clone planned
// for 8 rows, fed n ∈ 1..8 rows on one pooled executor, computes exactly
// what a clone built at n computes; more rows than the capacity is an
// error; and after the full-capacity run no prefix size faults in a buffer.
func TestCloneRunsPrefixBatches(t *testing.T) {
	g, x, logits, _ := buildBNNet(13)
	const capacity = 8
	cg, cm, err := graph.CloneForInference(g, logits, capacity, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := tensor.NewPool()
	ex := graph.NewPooledExecutor(cg, graph.FP32, 1, pool)
	rng := rand.New(rand.NewSource(17))
	var warm uint64
	for _, n := range []int{capacity, 1, 2, 3, 4, 5, 6, 7, 8} {
		in := tensor.RandNormal(tensor.NCHW(n, 2, 4, 4), 0, 1, rng)
		if err := ex.Forward(map[*graph.Node]*tensor.Tensor{cm[x]: in}); err != nil {
			t.Fatalf("%d rows: %v", n, err)
		}
		got := ex.Value(cm[logits])
		if got.Shape()[0] != n {
			t.Fatalf("%d rows: output shape %v", n, got.Shape())
		}
		ng, nm, err := graph.CloneForInference(g, logits, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := graph.NewPooledExecutor(ng, graph.FP32, 1, nil)
		if err := ref.Forward(map[*graph.Node]*tensor.Tensor{nm[x]: in}); err != nil {
			t.Fatal(err)
		}
		want := ref.Value(nm[logits])
		if !got.Shape().Equal(want.Shape()) {
			t.Fatalf("%d rows: shape %v, clone built at %d gives %v", n, got.Shape(), n, want.Shape())
		}
		for i, v := range want.Data() {
			if got.Data()[i] != v {
				t.Fatalf("%d rows: element %d is %v, clone built at %d gives %v", n, i, got.Data()[i], n, v)
			}
		}
		if warm == 0 {
			warm = pool.Stats().Misses
		}
	}
	if got := pool.Stats().Misses; got != warm {
		t.Errorf("prefix runs faulted in %d buffers after the full-capacity run", got-warm)
	}
	over := tensor.New(tensor.NCHW(capacity+1, 2, 4, 4))
	if err := ex.Forward(map[*graph.Node]*tensor.Tensor{cm[x]: over}); err == nil {
		t.Errorf("%d rows into a clone of capacity %d should fail", capacity+1, capacity)
	}
	if err := ex.Forward(map[*graph.Node]*tensor.Tensor{cm[x]: tensor.New(tensor.NCHW(2, 2, 4, 5))}); err == nil {
		t.Error("a feed differing past the batch dimension should fail")
	}
}

// TestTrainingGraphRequiresExactFeeds: a graph that is not an inference
// clone keeps the exact-shape check — fewer rows, more rows, or any other
// dimension off is an error.
func TestTrainingGraphRequiresExactFeeds(t *testing.T) {
	g, x, _, _ := buildBNNet(19)
	lb, wt := g.Inputs()[1], g.Inputs()[2]
	g2 := graph.New()
	x2 := g2.Input("x", tensor.NCHW(4, 2, 4, 4))
	g2.Apply(nn.ReLU{}, x2)
	labels := func(in *tensor.Tensor) map[*graph.Node]*tensor.Tensor {
		return map[*graph.Node]*tensor.Tensor{x: in, lb: tensor.New(tensor.Shape{1, 4, 4}), wt: tensor.New(tensor.Shape{1, 4, 4})}
	}
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		feeds map[*graph.Node]*tensor.Tensor
	}{
		{"more rows", g, labels(tensor.New(tensor.NCHW(2, 2, 4, 4)))},
		{"wider", g, labels(tensor.New(tensor.NCHW(1, 2, 4, 5)))},
		{"lower rank", g, labels(tensor.New(tensor.Shape{2, 4, 4}))},
		{"fewer rows", g2, map[*graph.Node]*tensor.Tensor{x2: tensor.New(tensor.NCHW(3, 2, 4, 4))}},
	} {
		for _, ex := range []*graph.Executor{graph.NewExecutor(tc.g, graph.FP32, 1), graph.NewPooledExecutor(tc.g, graph.FP32, 1, nil)} {
			if err := ex.Forward(tc.feeds); err == nil {
				t.Errorf("%s: feed accepted by a training graph", tc.name)
			}
		}
	}
}

func TestCloneForInferenceErrors(t *testing.T) {
	g, _, logits, _ := buildBNNet(5)
	if _, _, err := graph.CloneForInference(g, logits, 0, nil); err == nil {
		t.Error("batch 0 should fail")
	}
	if _, _, err := graph.CloneForInference(g, nil, 2, nil); err == nil {
		t.Error("nil root should fail")
	}
	// Symbolic graphs have no parameter values to share.
	sg := graph.New()
	sx := sg.Input("x", tensor.NCHW(1, 2, 4, 4))
	sw := sg.ParamShaped("w", tensor.OIHW(3, 2, 3, 3))
	sl := sg.Apply(nn.NewConv2D(1, 1, 1), sx, sw)
	if _, _, err := graph.CloneForInference(sg, sl, 2, nil); err == nil {
		t.Error("symbolic parameters should fail")
	}
}

// TestCloneExitBranchSharesParamsAndStopsAtTap: the exit-branch clone must
// contain only the prefix up to the tap (no decoder tail), share parameter
// storage with the source, and produce the tap's activations.
func TestCloneExitBranchSharesParamsAndStopsAtTap(t *testing.T) {
	g, x, logits, _ := buildBNNet(3)
	// The tap is the ReLU feeding the final conv: logits' first input.
	tap := logits.Inputs[0]
	ng, m, err := graph.CloneExitBranch(g, logits, tap, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m[logits] != nil {
		t.Error("decoder tail survived the exit-branch clone")
	}
	if m[tap] == nil || m[x] == nil {
		t.Fatal("tap or input missing from the clone")
	}
	if got := m[tap].Shape[0]; got != 3 {
		t.Errorf("tap batch %d, want 3", got)
	}
	if len(ng.Nodes()) >= len(g.Nodes()) {
		t.Errorf("exit branch has %d nodes, source %d — nothing pruned", len(ng.Nodes()), len(g.Nodes()))
	}
	// Parameters are shared by reference, not copied.
	for _, n := range g.Nodes() {
		if n.Value == nil || m[n] == nil || len(n.Inputs) > 0 {
			continue
		}
		if n == x || m[n].Value == nil {
			continue
		}
		if &n.Value.Data()[0] != &m[n].Value.Data()[0] {
			t.Errorf("param %q copied instead of shared", n.Label)
		}
	}
}

// TestCloneExitBranchValidatesTap: a tap that is not on the root's
// subgraph — or missing entirely — must be rejected.
func TestCloneExitBranchValidatesTap(t *testing.T) {
	g, _, logits, root := buildBNNet(5)
	// root (the loss head) is downstream of logits: not on logits' subgraph.
	if _, _, err := graph.CloneExitBranch(g, logits, root, 2, nil); err == nil {
		t.Error("downstream tap should fail")
	}
	if _, _, err := graph.CloneExitBranch(g, logits, nil, 2, nil); err == nil {
		t.Error("nil tap should fail")
	}
	if _, _, err := graph.CloneExitBranch(g, nil, logits, 2, nil); err == nil {
		t.Error("nil root should fail")
	}
	// A node from a different graph entirely.
	og, _, ologits, _ := buildBNNet(7)
	_ = og
	if _, _, err := graph.CloneExitBranch(g, logits, ologits, 2, nil); err == nil {
		t.Error("foreign tap should fail")
	}
}
