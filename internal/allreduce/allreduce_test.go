package allreduce

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/horovod"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// runReducer executes a reducer on a fabric with rank-dependent inputs and
// checks that every rank ends with the global sum. Returns the makespan.
func runReducer(t *testing.T, r horovod.Reducer, fabric simnet.Fabric, length int) float64 {
	t.Helper()
	n := fabric.Size()
	rng := rand.New(rand.NewSource(int64(n*7717 + length)))
	inputs := make([][]float32, n)
	expected := make([]float32, length)
	for rk := 0; rk < n; rk++ {
		inputs[rk] = make([]float32, length)
		for i := range inputs[rk] {
			inputs[rk][i] = float32(rng.Intn(64)) / 8
			expected[i] += inputs[rk][i]
		}
	}
	w := mpi.NewWorld(fabric)
	return w.Run(func(c *mpi.Comm) {
		buf := make([]float32, length)
		copy(buf, inputs[c.Rank()])
		r.Reduce(c, buf)
		for i := range buf {
			if math.Abs(float64(buf[i]-expected[i])) > 1e-3 {
				t.Errorf("%s n=%d rank=%d elem=%d got %g want %g",
					r.Name(), n, c.Rank(), i, buf[i], expected[i])
				return
			}
		}
	})
}

func TestFlatReducers(t *testing.T) {
	for _, alg := range []mpi.Algorithm{mpi.Ring, mpi.RecursiveDoubling, mpi.BinomialTree} {
		runReducer(t, Flat{Algorithm: alg}, simnet.Loopback(6), 100)
	}
}

func TestHybridCorrectMultiNode(t *testing.T) {
	for _, nodes := range []int{2, 3, 4} {
		fabric := simnet.Summit(nodes)
		h := NewHybrid(fabric)
		runReducer(t, h, fabric, 101) // odd length exercises uneven shards
	}
}

func TestHybridCorrectSingleNode(t *testing.T) {
	fabric := simnet.Summit(1)
	runReducer(t, NewHybrid(fabric), fabric, 50)
}

func TestHybridRingCrossAlgorithm(t *testing.T) {
	fabric := simnet.Summit(3)
	h := NewHybrid(fabric)
	h.CrossAlgorithm = mpi.Ring
	runReducer(t, h, fabric, 77)
}

func TestHybridShardCountVariants(t *testing.T) {
	fabric := simnet.Summit(2)
	for _, shards := range []int{1, 2, 4, 6, 8 /* clamped to 6 */} {
		h := NewHybrid(fabric)
		h.ShardRanks = shards
		runReducer(t, h, fabric, 64)
	}
}

func TestHybridFasterThanFlatRingOnSummit(t *testing.T) {
	// The motivating measurement: on a multi-node Summit fabric with a big
	// buffer, the hybrid (NVLink locally + 4 parallel IB shard reduces)
	// beats a flat ring that pushes the whole buffer over IB hops.
	fabric := simnet.Summit(4)
	const length = 1 << 16
	flatTime := runReducer(t, Flat{Algorithm: mpi.Ring}, fabric, length)
	hybridTime := runReducer(t, NewHybrid(fabric), fabric, length)
	t.Logf("24 GPUs, %d floats: flat ring %.3gs, hybrid %.3gs (%.1fx)",
		length, flatTime, hybridTime, flatTime/hybridTime)
	if hybridTime >= flatTime {
		t.Fatalf("hybrid (%.3gs) not faster than flat ring (%.3gs)", hybridTime, flatTime)
	}
}

func TestMoreShardRanksImproveCrossNodeBandwidth(t *testing.T) {
	// 4 shard ranks ≈ 4 virtual IB devices working in parallel: time should
	// improve from 1 shard to 4.
	fabric := simnet.Summit(4)
	const length = 1 << 16
	h1 := NewHybrid(fabric)
	h1.ShardRanks = 1
	t1 := runReducer(t, h1, fabric, length)
	h4 := NewHybrid(fabric)
	t4 := runReducer(t, h4, fabric, length)
	t.Logf("shard ranks 1: %.3gs, 4: %.3gs", t1, t4)
	if t4 >= t1 {
		t.Fatalf("4 shard ranks (%.3gs) not faster than 1 (%.3gs)", t4, t1)
	}
}

func TestReducerNames(t *testing.T) {
	if (Flat{Algorithm: mpi.Ring}).Name() != "flat-ring" {
		t.Fatal("flat name wrong")
	}
	h := NewHybrid(simnet.Summit(1))
	if h.Name() != "hybrid-4-recursive-doubling" {
		t.Fatalf("hybrid name = %s", h.Name())
	}
}
