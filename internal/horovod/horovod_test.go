package horovod

import (
	"math"
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/simnet"
)

// plainRing reduces with the basic MPI ring — enough for control tests.
type plainRing struct{}

func (plainRing) Reduce(c *mpi.Comm, data []float32) { c.Allreduce(data, mpi.Ring) }
func (plainRing) Name() string                       { return "ring" }

// runStep drives one negotiated step through PlanBuckets + Exchange on n
// loopback ranks with per-rank shuffled readiness orders, and returns
// per-rank stats plus exec orders. FusionBufferBytes: 1 gives every tensor
// its own bucket — the unfused protocol.
func runStep(t *testing.T, n, numTensors int, cfg Config) ([]Stats, [][]TensorID) {
	t.Helper()
	const elems = 8
	values, expected := mkValues(n, numTensors, elems)
	sizes := make([]int, numTensors)
	for i := range sizes {
		sizes[i] = elems
	}

	stats := make([]Stats, n)
	orders := make([][]TensorID, n)
	var mu sync.Mutex

	w := mpi.NewWorld(simnet.Loopback(n))
	w.Run(func(c *mpi.Comm) {
		sess := NewSession(c, plainRing{}, cfg)
		sess.PlanBuckets(sizes)
		// Every rank produces gradients in a different shuffled order —
		// the TensorFlow dynamic-scheduler behaviour that motivates the
		// coordinator.
		ready := shuffledReady(c.Rank(), numTensors)
		tensors := make([][]float32, numTensors)
		for id := range tensors {
			tensors[id] = append([]float32(nil), values[c.Rank()][id]...)
		}
		sess.Exchange(ready, tensors, 0)

		for id, got := range tensors {
			for e := range got {
				if math.Abs(float64(got[e]-expected[id][e])) > 1e-3 {
					t.Errorf("rank %d tensor %d elem %d: %g want %g",
						c.Rank(), id, e, got[e], expected[id][e])
					return
				}
			}
		}
		mu.Lock()
		stats[c.Rank()] = sess.Stats()
		orders[c.Rank()] = append([]TensorID(nil), sess.ExecOrder()...)
		mu.Unlock()
	})
	return stats, orders
}

// sequential returns the ready order 0..n-1.
func sequential(n int) []TensorID {
	ready := make([]TensorID, n)
	for i := range ready {
		ready[i] = TensorID(i)
	}
	return ready
}

func TestFlatControlPlaneCorrect(t *testing.T) {
	runStep(t, 6, 10, Flat(6))
}

func TestTreeControlPlaneCorrect(t *testing.T) {
	for _, radix := range []int{2, 3, 4, 8} {
		runStep(t, 9, 12, Tree(radix))
	}
}

func TestTotalOrderIdenticalAcrossRanks(t *testing.T) {
	// The deadlock-avoidance property: despite shuffled per-rank readiness,
	// every rank executes collectives in the same order.
	for _, cfg := range []Config{Flat(8), Tree(2), Tree(3)} {
		_, orders := runStep(t, 8, 15, cfg)
		ref := orders[0]
		if len(ref) != 15 {
			t.Fatalf("rank 0 executed %d tensors", len(ref))
		}
		for r := 1; r < len(orders); r++ {
			for i := range ref {
				if orders[r][i] != ref[i] {
					t.Fatalf("radix %d: rank %d order %v differs from rank 0 %v",
						cfg.Radix, r, orders[r], ref)
				}
			}
		}
	}
}

func TestFlatCoordinatorIsHotspot(t *testing.T) {
	// Flat mode: rank 0 handles Θ(N) control messages per tensor while
	// others handle Θ(1) — the measured bottleneck.
	const n, tensors = 12, 6
	stats, _ := runStep(t, n, tensors, Config{Radix: n - 1, FusionBufferBytes: 1})
	root := stats[0].CtlSent + stats[0].CtlReceived
	maxWorker := 0
	for r := 1; r < n; r++ {
		if s := stats[r].CtlSent + stats[r].CtlReceived; s > maxWorker {
			maxWorker = s
		}
	}
	t.Logf("flat: root handles %d ctl msgs, max worker %d", root, maxWorker)
	if root < (n-1)*tensors {
		t.Fatalf("root handled %d, expected ≥ %d", root, (n-1)*tensors)
	}
	if maxWorker > 3*tensors {
		t.Fatalf("worker load %d should be O(tensors)", maxWorker)
	}
}

func TestTreeBoundsPerRankLoad(t *testing.T) {
	// Hierarchical mode: no rank exceeds ~(2r+2) messages per tensor.
	const n, tensors, radix = 27, 8, 2
	stats, _ := runStep(t, n, tensors, Config{Radix: radix, FusionBufferBytes: 1})
	bound := tensors * (2*radix + 2)
	for r, s := range stats {
		load := s.CtlSent + s.CtlReceived
		if load > bound {
			t.Fatalf("rank %d load %d exceeds bound %d", r, load, bound)
		}
	}
}

func TestTreeReducesRootLoadVsFlat(t *testing.T) {
	const n, tensors = 16, 10
	flat, _ := runStep(t, n, tensors, Config{Radix: n - 1, FusionBufferBytes: 1})
	tree, _ := runStep(t, n, tensors, Config{Radix: 2, FusionBufferBytes: 1})
	flatRoot := flat[0].CtlSent + flat[0].CtlReceived
	treeRoot := tree[0].CtlSent + tree[0].CtlReceived
	t.Logf("root load: flat=%d tree(r=2)=%d (%.1fx reduction)",
		flatRoot, treeRoot, float64(flatRoot)/float64(treeRoot))
	if treeRoot*3 > flatRoot {
		t.Fatalf("tree root load %d not ≪ flat %d", treeRoot, flatRoot)
	}
}

func TestFusionReducesBatches(t *testing.T) {
	const n, tensors = 6, 12
	noFuse, _ := runStep(t, n, tensors, Config{Radix: 2, FusionBufferBytes: 1})
	fused, _ := runStep(t, n, tensors, Config{Radix: 2})
	t.Logf("batches: unfused=%d fused=%d", noFuse[0].Batches, fused[0].Batches)
	if fused[0].Batches >= noFuse[0].Batches {
		t.Fatalf("fusion did not reduce batches: %d vs %d",
			fused[0].Batches, noFuse[0].Batches)
	}
	if noFuse[0].Batches != tensors {
		t.Fatalf("unfused should be one batch per tensor, got %d", noFuse[0].Batches)
	}
}

func TestMultipleStepsReuseSession(t *testing.T) {
	// Epoch separation: back-to-back steps must not cross-contaminate.
	const n, tensors, steps = 4, 5, 3
	ones := make([]int, tensors)
	for i := range ones {
		ones[i] = 1
	}
	w := mpi.NewWorld(simnet.Loopback(n))
	w.Run(func(c *mpi.Comm) {
		sess := NewSession(c, plainRing{}, Config{Radix: 2, FusionBufferBytes: 1})
		sess.PlanBuckets(ones)
		for step := 0; step < steps; step++ {
			tens := make([][]float32, tensors)
			for i := range tens {
				tens[i] = []float32{float32(step + 1)}
			}
			sess.Exchange(sequential(tensors), tens, 0)
			want := float32((step + 1) * n)
			for i := range tens {
				if tens[i][0] != want {
					t.Errorf("step %d tensor %d = %g want %g",
						step, i, tens[i][0], want)
					return
				}
			}
		}
	})
}

func TestRadixInsensitivityInRange(t *testing.T) {
	// The paper observed no measurable step-time difference for r∈[2,8].
	// In virtual time the negotiation cost is dwarfed by the collective,
	// so makespans across radices should agree within a few percent.
	const n, tensors, elems = 16, 20, 2048
	times := map[int]float64{}
	for _, radix := range []int{2, 4, 8} {
		w := mpi.NewWorld(simnet.Loopback(n))
		makespan := w.Run(func(c *mpi.Comm) {
			sess := NewSession(c, plainRing{}, Tree(radix))
			sizes := make([]int, tensors)
			tens := make([][]float32, tensors)
			for i := range tens {
				sizes[i] = elems
				tens[i] = make([]float32, elems)
			}
			sess.PlanBuckets(sizes)
			sess.Exchange(sequential(tensors), tens, 0)
		})
		times[radix] = makespan
	}
	base := times[2]
	for r, tm := range times {
		if math.Abs(tm-base)/base > 0.25 {
			t.Fatalf("radix %d makespan %g deviates >25%% from radix-2 %g", r, tm, base)
		}
	}
	t.Logf("makespans by radix: %v", times)
}
