package core

import (
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/opt"
)

// Sharded weight update (Xu et al., arXiv:2004.13336; ZeRO stage 1,
// arXiv:1910.02054). Every rank of a synchronous run receives the same
// reduced gradient sums, so applying the optimizer on every rank repeats
// one computation world-size times and keeps world-size copies of its
// state. Instead each parameter tensor has one owner rank: the owner steps
// it and keeps its optimizer state, then sends the new weights to every
// other rank. The owner applies the same operation to the same reduced
// bits, so the trained weights are those of the replicated update.

// Tags above the mpi, allreduce and horovod namespaces: tagWeights carries
// the weight sync's shards, tagOptGather each rank's optimizer shard to
// rank 0 at a snapshot boundary.
const (
	tagWeights   = 13 << 20
	tagOptGather = 14 << 20
)

// shardBounds assigns each of ranks a contiguous range of parameter
// indices, rank r owning [b[r], b[r+1]), balanced by element count: of all
// such partitions it has the smallest largest share, found by a binary
// search over that share with a greedy left-to-right fill. The largest
// share sets the slowest owner's step and the weight sync's largest
// message; it never exceeds ⌈total/ranks⌉ plus the largest tensor, and
// trailing ranks may own nothing. It is a function of the sizes and the
// world size only, so every rank computes the same answer and no snapshot
// records it.
func shardBounds(sizes []int, ranks int) []int {
	total, largest := 0, 0
	for _, n := range sizes {
		total += n
		largest = max(largest, n)
	}
	// fill deals tensors left to right, opening the next rank whenever
	// the current one would exceed limit; it reports whether ranks
	// sufficed.
	b := make([]int, ranks+1)
	fill := func(limit int) bool {
		r, share := 0, 0
		for i, n := range sizes {
			if share+n > limit {
				if r++; r == ranks {
					return false
				}
				b[r], share = i, 0
			}
			share += n
		}
		for r++; r <= ranks; r++ {
			b[r] = len(sizes)
		}
		return true
	}
	lo, hi := max(largest, (total+ranks-1)/ranks), total
	for lo < hi {
		if mid := (lo + hi) / 2; fill(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	fill(lo)
	return b
}

// syncWeights sends every owner's freshly stepped tensors to the other
// ranks as a ring allgather over the shards: in round s each rank passes
// shard (rank−s) to its successor and receives shard (rank−s−1) from its
// predecessor, unpacking it straight into the parameters, so size−1 rounds
// reach everyone with one message per rank and non-empty shard per round
// (56 at 8 ranks). A rank depends on its predecessor only, which bounds
// the wire buffers in flight to about one per rank; binomial broadcasts
// per owner let fast ranks run ahead and held about 60 of them. Weights
// travel at FP32 whatever the gradient wire format, so every replica
// holds the owner's exact bits.
func syncWeights(c *mpi.Comm, params []*graph.Node, bounds []int) {
	n, me := c.Size(), c.Rank()
	next, prev := (me+1)%n, (me+n-1)%n
	shard := func(r int) []*graph.Node { return params[bounds[r]:bounds[r+1]] }
	var carry []float32 // the shard passed on this round
	for s := 0; s < n-1; s++ {
		if out := shard((me - s + n) % n); len(out) > 0 {
			if s == 0 {
				size := 0
				for _, p := range out {
					size += p.Value.NumElements()
				}
				carry = c.GetBuf(size)
				off := 0
				for _, p := range out {
					off += copy(carry[off:], p.Value.Data())
				}
			}
			c.Send(next, tagWeights, carry)
			c.Release(carry)
			carry = nil
		}
		if in := shard((me - s - 1 + n) % n); len(in) > 0 {
			carry = c.Recv(prev, tagWeights)
			off := 0
			for _, p := range in {
				off += copy(p.Value.Data(), carry[off:])
			}
		}
	}
	if carry != nil {
		c.Release(carry)
	}
}

// ownedState returns a view of a full optimizer capture that keeps only
// the entries of the owned parameters, so a rank restores its shard of a
// snapshot taken at any world size. Moment slots are named
// "<moment>/<label>" (Adam's m/ and v/, SGD's v/), queued lagged gradients
// by label; the queue keeps its length, with possibly empty sets, because
// every rank's lag queue advances in step.
func ownedState(st *opt.State, owned map[string]bool) *opt.State {
	if st == nil {
		return nil
	}
	out := *st
	out.Slots = nil
	for _, s := range st.Slots {
		if _, label, ok := strings.Cut(s.Name, "/"); ok && owned[label] {
			out.Slots = append(out.Slots, s)
		}
	}
	if st.Queue != nil {
		out.Queue = make([][]opt.Slot, len(st.Queue))
		for q, set := range st.Queue {
			for _, s := range set {
				if owned[s.Name] {
					out.Queue[q] = append(out.Queue[q], s)
				}
			}
		}
	}
	out.Base = ownedState(st.Base, owned)
	return &out
}

// slotHeader names one vector of a packed optimizer shard.
type slotHeader struct {
	name string
	n    int
}

// forEachSlotGroup visits the slot groups of a capture in a fixed order,
// level by level down the wrapper chain: the level's slots, then each of
// its queued gradient sets. Every rank's capture has the same levels and
// queue length, so group g means the same thing on every rank.
func forEachSlotGroup(st *opt.State, fn func([]opt.Slot)) {
	for ; st != nil; st = st.Base {
		fn(st.Slots)
		for _, set := range st.Queue {
			fn(set)
		}
	}
}

// sendOptShard packs this rank's optimizer capture into one message to
// rank 0: the vectors end to end as payload, their names and lengths per
// slot group as the header.
func sendOptShard(c *mpi.Comm, st *opt.State) {
	var hdr [][]slotHeader
	n := 0
	forEachSlotGroup(st, func(slots []opt.Slot) {
		g := make([]slotHeader, len(slots))
		for i, s := range slots {
			g[i] = slotHeader{name: s.Name, n: len(s.Data)}
			n += len(s.Data)
		}
		hdr = append(hdr, g)
	})
	buf := c.GetBuf(n)
	off := 0
	forEachSlotGroup(st, func(slots []opt.Slot) {
		for _, s := range slots {
			off += copy(buf[off:], s.Data)
		}
	})
	c.SendPayload(0, tagOptGather, buf, hdr)
	c.Release(buf)
}

// optShard is one received shard with a cursor over its slot groups.
type optShard struct {
	data     []float32
	hdr      [][]slotHeader
	group, o int
}

// next returns the shard's next slot group as views into its payload.
func (s *optShard) next() []opt.Slot {
	g := s.hdr[s.group]
	s.group++
	out := make([]opt.Slot, len(g))
	for i, h := range g {
		out[i] = opt.Slot{Name: h.name, Data: s.data[s.o : s.o+h.n]}
		s.o += h.n
	}
	return out
}

// gatherOptState is rank 0's side of the snapshot gather: it receives every
// other rank's shard and assembles, into prev's recycled storage, exactly
// the State an unsharded optimizer captures. Slots are name-sorted, each
// queued set lists its parameters in order (rank r's shard holds the
// tensors after rank r−1's), and Kind and Step are the same on every rank.
func gatherOptState(c *mpi.Comm, prev, local *opt.State) *opt.State {
	shards := make([]*optShard, c.Size()-1)
	for r := range shards {
		data, meta := c.RecvMeta(r+1, tagOptGather)
		shards[r] = &optShard{data: data, hdr: meta.([][]slotHeader)}
	}
	st := assembleState(prev, local, shards)
	for _, s := range shards {
		c.Release(s.data)
	}
	return st
}

func assembleState(prev, local *opt.State, shards []*optShard) *opt.State {
	if local == nil {
		return nil
	}
	if prev == nil {
		prev = &opt.State{}
	}
	prev.Kind, prev.Step = local.Kind, local.Step
	merge := func(own []opt.Slot) []opt.Slot {
		all := append([]opt.Slot(nil), own...)
		for _, s := range shards {
			all = append(all, s.next()...)
		}
		return all
	}
	slots := merge(local.Slots)
	sort.Slice(slots, func(i, j int) bool { return slots[i].Name < slots[j].Name })
	prev.Slots = copySlotsInto(prev.Slots, slots)
	if len(local.Queue) == 0 {
		prev.Queue = nil
	} else {
		if len(prev.Queue) != len(local.Queue) {
			prev.Queue = make([][]opt.Slot, len(local.Queue))
		}
		for q, set := range local.Queue {
			prev.Queue[q] = copySlotsInto(prev.Queue[q], merge(set))
		}
	}
	prev.Base = assembleState(prev.Base, local.Base, shards)
	return prev
}

// copySlotsInto deep-copies src into dst's storage, reusing each vector
// whose length matches; an empty src gives nil, as an unsharded capture
// does.
func copySlotsInto(dst, src []opt.Slot) []opt.Slot {
	if len(src) == 0 {
		return nil
	}
	if cap(dst) < len(src) {
		dst = append(dst[:cap(dst)], make([]opt.Slot, len(src)-cap(dst))...)
	}
	dst = dst[:len(src)]
	for i, s := range src {
		d := dst[i].Data
		if len(d) != len(s.Data) {
			d = make([]float32, len(s.Data))
		}
		copy(d, s.Data)
		dst[i] = opt.Slot{Name: s.Name, Data: d}
	}
	return dst
}
