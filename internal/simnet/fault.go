package simnet

import "fmt"

// FaultFabric wraps a base fabric with scheduled node failures, the repo's
// model of mid-run membership churn: an HPC node dies, every rank it hosts
// stops contributing, and the job must continue on the survivors. Failures
// are scheduled before the run starts (FailNode) and queried during it
// (FailedAsOf) — the schedule is immutable once ranks are running, which is
// what makes the queries race-free from every rank goroutine.
//
// After the trainer drains the failed step, Shrink produces the surviving
// world: a fabric over the same physical nodes minus the failed ones, with
// ranks renumbered densely so the mpi world can be rebuilt at the smaller
// size. Link timing still resolves through the base fabric via the rank
// map, so survivors keep their real topology distances.
type FaultFabric struct {
	base   Fabric
	failAt map[int]int // node index → first step at which it is failed
	// ranks maps this view's rank numbering to base-fabric ranks; nil means
	// identity (no shrink has happened yet).
	ranks []int
}

var _ Fabric = (*FaultFabric)(nil)

// NewFaultFabric wraps base with an (initially empty) failure schedule.
func NewFaultFabric(base Fabric) *FaultFabric {
	return &FaultFabric{base: base, failAt: map[int]int{}}
}

// FailNode schedules node to be failed from step atStep onwards. Must be
// called before ranks start running.
func (f *FaultFabric) FailNode(node, atStep int) {
	maxNode := (f.base.Size() - 1) / f.base.RanksPerNode()
	if node < 0 || node > maxNode {
		panic(fmt.Sprintf("simnet: FailNode(%d) on a fabric with nodes 0..%d", node, maxNode))
	}
	f.failAt[node] = atStep
}

func (f *FaultFabric) baseRank(r int) int {
	if f.ranks == nil {
		return r
	}
	return f.ranks[r]
}

// Size implements Fabric.
func (f *FaultFabric) Size() int {
	if f.ranks == nil {
		return f.base.Size()
	}
	return len(f.ranks)
}

// RanksPerNode implements Fabric. It reports the base fabric's value: after
// a shrink the survivors may not fill nodes evenly, but only topology-aware
// reducers (hybrid/nccl) consume this and the elastic trainer does not
// combine with them.
func (f *FaultFabric) RanksPerNode() int { return f.base.RanksPerNode() }

// NodeOf implements Fabric.
func (f *FaultFabric) NodeOf(rank int) int { return f.base.NodeOf(f.baseRank(rank)) }

// TransferSeconds implements Fabric.
func (f *FaultFabric) TransferSeconds(src, dst, bytes int) float64 {
	return f.base.TransferSeconds(f.baseRank(src), f.baseRank(dst), bytes)
}

// FailedAsOf reports whether the node hosting rank is failed at step. Safe
// to call concurrently from rank goroutines (the schedule is read-only
// while ranks run).
func (f *FaultFabric) FailedAsOf(rank, step int) bool {
	at, ok := f.failAt[f.NodeOf(rank)]
	return ok && step >= at
}

// Shrink returns the surviving world: every rank whose node has a scheduled
// failure is dropped, the rest are renumbered densely in rank order. The
// new fabric starts with an empty failure schedule (the dead nodes are out
// of the view; fresh failures can be scheduled against the survivors).
func (f *FaultFabric) Shrink() *FaultFabric {
	surv := []int{} // non-nil: a nil rank list means the whole base fabric
	for r := 0; r < f.Size(); r++ {
		if _, failed := f.failAt[f.NodeOf(r)]; !failed {
			surv = append(surv, f.baseRank(r))
		}
	}
	return &FaultFabric{base: f.base, failAt: map[int]int{}, ranks: surv}
}
