package allreduce

import (
	"fmt"

	"repro/internal/mpi"
)

const tagCanon = 11 << 20

// CanonicalTree is the elastic trainer's reducer: a binomial reduce to rank
// 0 followed by a broadcast, always at FP32 on the wire. Its value is not
// speed but a world-size-invariant summation ORDER.
//
// Float addition is not associative, so the usual reducers (ring,
// recursive doubling) produce sums whose bit pattern depends on how many
// ranks participated — fatal for the elastic determinism contract, which
// promises that an 8-rank snapshot resumed at 4 or 16 ranks reproduces the
// uninterrupted loss trajectory bit-exactly per global batch. The binomial
// tree fixes the order: at stride s, rank r (r odd multiple of s) sends its
// partial sum to r−s, which adds it on the right (earlier += later). For a
// power-of-two number of contributors this IS the balanced binary pairwise
// tree over contributors in rank order — exactly the tree each rank also
// uses to combine its own columns locally (core's gradient accumulator), so
// the full reduction over GlobalBatch columns associates identically no
// matter how the columns are spread over ranks. Addition of two floats is
// bitwise commutative, so only this tree shape matters, not which worker
// evaluates each node.
//
// ActiveRanks masks the tail of the world: ranks ≥ ActiveRanks hold no
// columns (world larger than the global batch) and must not perturb the
// tree, not even with +0.0 contributions (adding a zero can flip −0.0 to
// +0.0). They send a nil-payload control message instead, and a receiver
// whose own subtree is empty adopts the first real payload it sees rather
// than adding it. Every rank still participates in the message pattern and
// the final broadcast, so idle ranks leave with the same bits as active
// ones.
type CanonicalTree struct {
	// ActiveRanks is the number of leading ranks that contribute data
	// (min(world, global batch)); 0 means all ranks contribute.
	ActiveRanks int
}

// Name implements horovod.Reducer.
func (t *CanonicalTree) Name() string {
	return fmt.Sprintf("canonical-tree-%d", t.ActiveRanks)
}

// Reduce implements horovod.Reducer. Must be called collectively; data is replaced
// on every rank by the canonical sum over the active ranks' buffers.
func (t *CanonicalTree) Reduce(c *mpi.Comm, data []float32) {
	active := t.ActiveRanks
	if active <= 0 || active > c.Size() {
		active = c.Size()
	}
	r := c.Rank()
	contributing := r < active
	for stride := 1; stride < c.Size(); stride *= 2 {
		if r%(2*stride) == 0 {
			partner := r + stride
			if partner >= c.Size() {
				continue
			}
			payload, _ := c.RecvMeta(partner, tagCanon)
			if payload != nil {
				if contributing {
					for i, v := range payload {
						data[i] += v
					}
				} else {
					// Empty subtree adopting its first real payload: the
					// bits pass through untouched. (Unreachable with a
					// prefix-active mask, where an idle receiver only ever
					// has idle partners, but kept so the tree is correct
					// for any mask.)
					copy(data, payload)
					contributing = true
				}
				c.Release(payload)
			}
		} else {
			partner := r - stride
			if contributing {
				c.Send(partner, tagCanon, data)
			} else {
				c.SendMeta(partner, tagCanon, nil)
			}
			break
		}
	}
	c.Bcast(0, data)
}
