package graph_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/loss"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildReuseNet is a small but representative training graph: conv → bn →
// relu → maxpool → upsample-free conv head → weighted loss, exercising
// scratch-aware kernels, gradient accumulation, and the weighted loss.
func buildReuseNet(seed int64) (g *graph.Graph, root *graph.Node, feeds map[*graph.Node]*tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	g = graph.New()
	x := g.Input("x", tensor.NCHW(1, 3, 8, 8))
	lb := g.Input("labels", tensor.Shape{1, 8, 8})
	wt := g.Input("weights", tensor.Shape{1, 8, 8})
	w1 := g.Param("w1", tensor.HeInit(tensor.OIHW(4, 3, 3, 3), rng))
	gamma := g.Param("gamma", tensor.Ones(tensor.Shape{4}))
	beta := g.Param("beta", tensor.Zeros(tensor.Shape{4}))
	w2 := g.Param("w2", tensor.HeInit(tensor.OIHW(3, 4, 1, 1), rng))
	b2 := g.Param("b2", tensor.Zeros(tensor.Shape{3}))

	h := g.Apply(nn.NewConv2D(1, 1, 1), x, w1)
	h = g.Apply(nn.NewBatchNorm(1e-5, 0.1), h, gamma, beta)
	h = g.Apply(nn.ReLU{}, h)
	logits := g.Apply(nn.NewFusedConvBias(1, 0, 1, false), h, w2, b2)
	root = g.Apply(loss.WeightedSoftmaxCE{}, logits, lb, wt)

	xT := tensor.RandNormal(tensor.NCHW(1, 3, 8, 8), 0, 1, rng)
	lbT := tensor.New(tensor.Shape{1, 8, 8})
	for i := range lbT.Data() {
		lbT.Data()[i] = float32(rng.Intn(3))
	}
	wtT := tensor.Ones(tensor.Shape{1, 8, 8})
	feeds = map[*graph.Node]*tensor.Tensor{x: xT, lb: lbT, wt: wtT}
	return g, root, feeds
}

// TestPooledExecutorMatchesLegacy runs the same graph through a legacy
// executor and a pooled reusing executor for several consecutive steps and
// demands bit-identical losses and parameter gradients: buffer recycling
// must be numerically invisible.
func TestPooledExecutorMatchesLegacy(t *testing.T) {
	g, root, feeds := buildReuseNet(1)
	pooled := graph.NewPooledExecutor(g, graph.FP32, 1, nil)
	for step := 0; step < 5; step++ {
		seed := int64(100 + step)
		legacy := graph.NewExecutor(g, graph.FP32, seed)
		pooled.Reseed(seed)

		if err := legacy.Forward(feeds); err != nil {
			t.Fatal(err)
		}
		if err := pooled.Forward(feeds); err != nil {
			t.Fatal(err)
		}
		lRef := legacy.Value(root).Data()[0]
		lGot := pooled.Value(root).Data()[0]
		if lRef != lGot {
			t.Fatalf("step %d: pooled loss %g != legacy %g", step, lGot, lRef)
		}
		if err := legacy.Backward(root); err != nil {
			t.Fatal(err)
		}
		if err := pooled.Backward(root); err != nil {
			t.Fatal(err)
		}
		for _, p := range g.Params() {
			gr, gp := legacy.Grad(p), pooled.Grad(p)
			if gr == nil || gp == nil {
				t.Fatalf("step %d: missing grad for %s", step, p.Label)
			}
			for i := range gr.Data() {
				if gr.Data()[i] != gp.Data()[i] {
					t.Fatalf("step %d: param %s grad[%d] = %g, legacy %g",
						step, p.Label, i, gp.Data()[i], gr.Data()[i])
				}
			}
		}
	}
}

// TestPooledExecutorFP16 exercises recycling under FP16 rounding.
func TestPooledExecutorFP16(t *testing.T) {
	g, root, feeds := buildReuseNet(2)
	pooled := graph.NewPooledExecutor(g, graph.FP16, 3, nil)
	var first float64
	for step := 0; step < 3; step++ {
		pooled.Reseed(int64(step))
		if err := pooled.Forward(feeds); err != nil {
			t.Fatal(err)
		}
		l := float64(pooled.Value(root).Data()[0])
		if step == 0 {
			first = l
		} else if l != first {
			t.Fatalf("step %d: FP16 loss %g differs from step 0's %g (same feeds)", step, l, first)
		}
		if err := pooled.Backward(root); err != nil {
			t.Fatal(err)
		}
		for _, p := range g.Params() {
			if pooled.Grad(p) == nil {
				t.Fatalf("missing FP16 grad for %s", p.Label)
			}
		}
	}
}

// TestPooledExecutorAllocs is the allocation regression test of the
// reusing executor: after warmup, a full forward+backward step must
// allocate at least 10× less than the legacy allocate-per-run executor.
func TestPooledExecutorAllocs(t *testing.T) {
	prev := tensor.SetParallelism(1) // goroutine spawns would count as allocs
	defer tensor.SetParallelism(prev)

	g, root, feeds := buildReuseNet(3)

	legacyAllocs := testing.AllocsPerRun(10, func() {
		ex := graph.NewExecutor(g, graph.FP32, 1)
		if err := ex.Forward(feeds); err != nil {
			t.Fatal(err)
		}
		if err := ex.Backward(root); err != nil {
			t.Fatal(err)
		}
	})

	pooled := graph.NewPooledExecutor(g, graph.FP32, 1, nil)
	// Warmup: populate the pool and the plans.
	for i := 0; i < 3; i++ {
		if err := pooled.Forward(feeds); err != nil {
			t.Fatal(err)
		}
		if err := pooled.Backward(root); err != nil {
			t.Fatal(err)
		}
	}
	pooledAllocs := testing.AllocsPerRun(10, func() {
		if err := pooled.Forward(feeds); err != nil {
			t.Fatal(err)
		}
		if err := pooled.Backward(root); err != nil {
			t.Fatal(err)
		}
	})

	t.Logf("allocs/op: legacy=%.1f pooled=%.1f", legacyAllocs, pooledAllocs)
	if pooledAllocs*10 > legacyAllocs {
		t.Fatalf("pooled executor allocs/op = %.1f, want ≤ legacy/10 (legacy = %.1f)",
			pooledAllocs, legacyAllocs)
	}

	st := pooled.PoolStats()
	if st.Reuses() == 0 {
		t.Fatal("pool reported no reuse")
	}
}

// TestPooledExecutorLifetimes pins the documented validity windows: op
// values are readable between Forward and Backward, and param/input grads
// survive until the next Forward.
func TestPooledExecutorLifetimes(t *testing.T) {
	g, root, feeds := buildReuseNet(4)
	ex := graph.NewPooledExecutor(g, graph.FP32, 1, nil)
	if err := ex.Forward(feeds); err != nil {
		t.Fatal(err)
	}
	lossVal := float64(ex.Value(root).Data()[0])
	if math.IsNaN(lossVal) {
		t.Fatal("NaN loss")
	}
	if err := ex.Backward(root); err != nil {
		t.Fatal(err)
	}
	grads := ex.ParamGrads()
	if len(grads) != len(g.Params()) {
		t.Fatalf("got %d param grads, want %d", len(grads), len(g.Params()))
	}
	// Snapshot a grad, run another step, and verify the snapshot's buffer
	// was recycled (stats move) while the new run stays correct.
	if err := ex.Forward(feeds); err != nil {
		t.Fatal(err)
	}
	if err := ex.Backward(root); err != nil {
		t.Fatal(err)
	}
	if ex.PoolStats().Puts == 0 {
		t.Fatal("no buffers were ever recycled")
	}
}

// heapOnly hides an op's scratch methods: the pooled executor can only call
// its plain Forward/Backward, whose results live on the Go heap.
type heapOnly struct{ graph.Op }

// TestPooledExecutorRecyclesOnlyWorkspaceTensors: whatever mix of
// scratch-aware and plain ops a graph holds, the executor's pool takes back
// no more than it handed out and, once warm, faults in nothing — a
// heap-allocated output or gradient is the collector's, never adopted.
// (Adopting them is how a forward-only fused op once grew every serving
// replica's pool per tile.)
func TestPooledExecutorRecyclesOnlyWorkspaceTensors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.New()
	x := g.Input("x", tensor.NCHW(2, 3, 8, 8))
	w := g.Param("w", tensor.HeInit(tensor.OIHW(4, 3, 3, 3), rng))
	h := g.Apply(nn.NewConv2D(1, 1, 1), x, w)
	h = g.Apply(heapOnly{nn.ReLU{}}, h)
	a := g.Apply(nn.ReLU{}, h)
	b := g.Apply(heapOnly{nn.Identity{}}, h)
	root := g.Apply(nn.GlobalAvgPool{}, g.Apply(nn.Add{}, a, b))
	feeds := map[*graph.Node]*tensor.Tensor{x: tensor.RandNormal(tensor.NCHW(2, 3, 8, 8), 0, 1, rng)}

	pool := tensor.NewPool()
	ex := graph.NewPooledExecutor(g, graph.FP32, 1, pool)
	step := func() {
		if err := ex.Forward(feeds); err != nil {
			t.Fatal(err)
		}
		if err := ex.Backward(root); err != nil {
			t.Fatal(err)
		}
	}
	step()
	step()
	warm := pool.Stats()
	for i := 0; i < 20; i++ {
		step()
	}
	ex.Release()
	st := pool.Stats()
	if st.Puts > st.Gets {
		t.Errorf("pool took back %d buffers but handed out %d", st.Puts, st.Gets)
	}
	if st.Misses != warm.Misses {
		t.Errorf("pool misses grew from %d to %d over 20 warm steps", warm.Misses, st.Misses)
	}
}
