// Package allreduce composes the paper's hybrid gradient all-reduce
// (Section V-A3): NCCL reduces within the node over NVLink, a configurable
// number of local ranks each run a cross-node MPI all-reduce on a disjoint
// shard of the buffer (matching communicating processes 1:1 with the
// node's virtual InfiniBand devices), and NCCL broadcasts re-assemble the
// full result on every GPU. Plain single-algorithm reducers are provided
// for the ablation benchmarks.
//
// Both reducers support an FP16 wire format (mpi.WireFP16): gradients are
// rounded to binary16 on send and accumulated in FP32 on receive, halving
// the bytes the cross-node fabric carries — the paper's mixed-precision
// communication datapath. The hybrid reducer applies the wire format only
// to the cross-node phase; NVLink-class intra-node traffic stays FP32.
package allreduce

import (
	"fmt"
	"sync"

	"repro/internal/mpi"
	"repro/internal/nccl"
	"repro/internal/simnet"
)

const tagShard = 10 << 20

// Flat applies one MPI algorithm across all ranks, ignoring topology —
// the baseline the hybrid improves on.
type Flat struct {
	Algorithm mpi.Algorithm
	// Wire selects the on-the-wire element format (default mpi.WireFP32).
	Wire mpi.Wire
}

// Name implements horovod.Reducer.
func (f Flat) Name() string { return "flat-" + f.Algorithm.String() }

// Reduce implements horovod.Reducer.
func (f Flat) Reduce(c *mpi.Comm, data []float32) {
	c.AllreduceWire(data, f.Algorithm, f.Wire)
}

// WireBytesPerElem reports the reducer's wire width (see horovod.Stats).
func (f Flat) WireBytesPerElem() int { return f.Wire.BytesPerElem() }

// Hybrid is the paper's three-phase all-reduce. One instance may be shared
// by every rank goroutine (per-rank communicator state is memoized in a
// concurrent map, so steady-state reduces allocate nothing).
type Hybrid struct {
	Fabric simnet.Fabric
	// ShardRanks is how many local ranks participate in the cross-node
	// phase (4 on Summit: two per CPU socket, one per virtual IB device).
	ShardRanks int
	// CrossAlgorithm is the MPI algorithm for the cross-node phase.
	CrossAlgorithm mpi.Algorithm
	// Wire is the cross-node wire format (default mpi.WireFP32). Intra-node
	// phases always run FP32 — on the real machine they ride NVLink, where
	// the paper kept full precision.
	Wire mpi.Wire

	// perComm memoizes each rank's node-local communicator and cross-node
	// group (keyed by *mpi.Comm), so steady-state reduces allocate nothing.
	perComm sync.Map
}

// hybridState is one rank's memoized communicator state.
type hybridState struct {
	local *nccl.Communicator
	group []int
}

// NewHybrid returns the Summit configuration: 4 shard ranks,
// recursive-doubling across nodes.
func NewHybrid(fabric simnet.Fabric) *Hybrid {
	return &Hybrid{Fabric: fabric, ShardRanks: 4, CrossAlgorithm: mpi.RecursiveDoubling}
}

// Name implements horovod.Reducer.
func (h *Hybrid) Name() string {
	return fmt.Sprintf("hybrid-%d-%s", h.ShardRanks, h.CrossAlgorithm)
}

// WireBytesPerElem reports the cross-node wire width.
func (h *Hybrid) WireBytesPerElem() int { return h.Wire.BytesPerElem() }

// stateFor returns the rank's memoized communicator state.
func (h *Hybrid) stateFor(c *mpi.Comm) *hybridState {
	if st, ok := h.perComm.Load(c); ok {
		return st.(*hybridState)
	}
	st := &hybridState{local: nccl.New(c, h.Fabric)}
	h.perComm.Store(c, st)
	return st
}

// Reduce implements horovod.Reducer.
func (h *Hybrid) Reduce(c *mpi.Comm, data []float32) {
	st := h.stateFor(c)
	local := st.local
	perNode := local.Size()
	shards := h.ShardRanks
	if shards > perNode {
		shards = perNode
	}
	nodes := h.Fabric.Size() / perNode

	// Single-node worlds need only the NCCL phase.
	if nodes <= 1 {
		local.Allreduce(data)
		return
	}

	// Phase 1: node-local ring all-reduce — every local rank now holds the
	// node's partial sum.
	local.Allreduce(data)

	// Phase 2: the first `shards` local ranks each all-reduce their shard
	// of the buffer with the corresponding rank on every other node, at the
	// configured wire format.
	lr := local.LocalRank()
	if lr < shards {
		if len(st.group) != nodes {
			st.group = make([]int, nodes)
		}
		for nd := 0; nd < nodes; nd++ {
			st.group[nd] = nd*perNode + lr
		}
		lo, hi := mpi.ChunkSpan(len(data), shards, lr)
		reduceOverGroup(c, data[lo:hi], st.group, h.CrossAlgorithm, h.Wire)
	}

	// Phase 3: shard owners broadcast their final shard across the node.
	for s := 0; s < shards; s++ {
		lo, hi := mpi.ChunkSpan(len(data), shards, s)
		local.Bcast(s, data[lo:hi])
	}
}

// reduceOverGroup runs the chosen algorithm over an arbitrary rank group.
// Ring reuses mpi's group ring; other algorithms fall back to recursive
// doubling over the group (correct, if not latency-optimal) unless the
// group is the full world.
func reduceOverGroup(c *mpi.Comm, data []float32, group []int, alg mpi.Algorithm, wire mpi.Wire) {
	if len(group) == c.Size() {
		c.AllreduceWire(data, alg, wire)
		return
	}
	switch alg {
	case mpi.Ring:
		c.AllreduceGroupWire(data, group, wire)
	default:
		// Recursive doubling over the subgroup by index (one shared
		// implementation in mpi carries the FP16 bit-identity discipline).
		me := -1
		for i, r := range group {
			if r == c.Rank() {
				me = i
			}
		}
		c.RecursiveDoublingGroupWire(data, group, me, wire, tagShard)
	}
}
