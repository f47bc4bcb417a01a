package mpi

import "repro/internal/hpfloat"

// Wire selects the on-the-wire element format of a collective. The paper's
// exascale runs move FP16 gradients between nodes (halving the bytes the
// InfiniBand fabric carries) while every rank accumulates in FP32 — Wire
// reproduces that datapath: WireFP16 packs two binary16 values per 32-bit
// payload word on send (hpfloat.PackWords) and unpacks into FP32
// accumulation on receive.
type Wire int

const (
	// WireFP32 sends gradients at full width (the default).
	WireFP32 Wire = iota
	// WireFP16 rounds to binary16 on send and accumulates in FP32 on
	// receive, halving wire bytes at a bounded precision cost.
	WireFP16
)

// String names the wire format.
func (w Wire) String() string {
	if w == WireFP16 {
		return "fp16"
	}
	return "fp32"
}

// BytesPerElem returns the wire width of one gradient element.
func (w Wire) BytesPerElem() int {
	if w == WireFP16 {
		return 2
	}
	return 4
}

// SendWire transmits data at the given wire format. FP16 payloads are
// packed into half-length word buffers drawn from the wire pool, so the
// fabric (and BytesSent accounting) sees half the bytes.
func (c *Comm) SendWire(dst, tag int, data []float32, w Wire) {
	if w == WireFP32 {
		c.Send(dst, tag, data)
		return
	}
	words := c.GetBuf(hpfloat.WireWords(len(data)))
	hpfloat.PackWords(data, words)
	c.Send(dst, tag, words)
	c.Release(words)
}

// RecvWireAdd receives a wire-format payload and accumulates it into acc in
// FP32 (acc += received). The received buffer is released to the pool.
func (c *Comm) RecvWireAdd(src, tag int, acc []float32, w Wire) {
	got := c.Recv(src, tag)
	if w == WireFP32 {
		for i := range acc {
			acc[i] += got[i]
		}
	} else {
		hpfloat.UnpackAddWords(got, acc)
	}
	c.Release(got)
}

// RecvWireCopy receives a wire-format payload into dst, overwriting. The
// received buffer is released to the pool.
func (c *Comm) RecvWireCopy(src, tag int, dst []float32, w Wire) {
	got := c.Recv(src, tag)
	if w == WireFP32 {
		copy(dst, got)
	} else {
		hpfloat.UnpackWords(got, dst)
	}
	c.Release(got)
}

// roundTrip rounds data through the wire format in place. Algorithms that
// must leave every rank with bit-identical buffers round their local
// contribution exactly as the wire would before combining, so a rank's own
// value never differs from what its peers received.
func roundTrip(data []float32, w Wire) {
	if w == WireFP16 {
		hpfloat.RoundTrip(data)
	}
}

// AllreduceWire is Allreduce with an explicit wire format. All ranks end
// with bit-identical buffers (WireFP16 rounds the final values through
// binary16 so owners match receivers). The BinomialTree reduce phase and
// the final broadcast both honor the format.
func (c *Comm) AllreduceWire(data []float32, alg Algorithm, w Wire) {
	if c.Size() == 1 {
		return
	}
	if w == WireFP32 {
		c.Allreduce(data, alg)
		return
	}
	switch alg {
	case Ring:
		c.ringAllreduceWire(data, w)
	case RecursiveDoubling:
		c.recursiveDoublingWire(data, w)
	case BinomialTree:
		c.treeAllreduceWire(data, w)
	default:
		panic("mpi: unknown allreduce algorithm")
	}
}

// AllreduceGroupWire is AllreduceGroup (ring over a subgroup) with an
// explicit wire format.
func (c *Comm) AllreduceGroupWire(data []float32, group []int, w Wire) {
	if len(group) <= 1 {
		return
	}
	if w == WireFP32 {
		c.AllreduceGroup(data, group)
		return
	}
	me := -1
	for i, r := range group {
		if r == c.rank {
			me = i
			break
		}
	}
	if me < 0 {
		panic("mpi: caller not in group")
	}
	c.ringOverWire(data, group, me, w)
}

func (c *Comm) ringAllreduceWire(data []float32, w Wire) {
	c.ringOverWire(data, c.world.allRanks, c.rank, w)
}

// ringOverWire is ringOver with wire-format sends: reduce-scatter hops
// carry FP16-packed partial chunks that are accumulated in FP32; before the
// allgather, each chunk owner rounds its finished chunk through the wire so
// the value it keeps is bit-identical to the copies every other rank
// receives.
func (c *Comm) ringOverWire(data []float32, group []int, me int, w Wire) {
	n := len(group)
	next := group[(me+1)%n]
	prev := group[(me-1+n)%n]

	for s := 0; s < n-1; s++ {
		sendIdx := ((me-s)%n + n) % n
		recvIdx := ((me-s-1)%n + n) % n
		lo, hi := ChunkSpan(len(data), n, sendIdx)
		c.SendWire(next, tagAllreduce+s, data[lo:hi], w)
		lo, hi = ChunkSpan(len(data), n, recvIdx)
		c.RecvWireAdd(prev, tagAllreduce+s, data[lo:hi], w)
	}
	// This rank now owns chunk (me+1): round it to the wire before
	// circulating so every rank holds the same bits.
	lo, hi := ChunkSpan(len(data), n, (me+1)%n)
	roundTrip(data[lo:hi], w)
	for s := 0; s < n-1; s++ {
		sendIdx := ((me+1-s)%n + n) % n
		recvIdx := ((me-s)%n + n) % n
		lo, hi := ChunkSpan(len(data), n, sendIdx)
		c.SendWire(next, tagAllreduce+n+s, data[lo:hi], w)
		lo, hi = ChunkSpan(len(data), n, recvIdx)
		c.RecvWireCopy(prev, tagAllreduce+n+s, data[lo:hi], w)
	}
}

// recursiveDoublingWire exchanges FP16-packed partials over the full
// world.
func (c *Comm) recursiveDoublingWire(data []float32, w Wire) {
	c.RecursiveDoublingGroupWire(data, c.world.allRanks, c.rank, w, tagAllreduce)
}

// RecursiveDoublingGroupWire runs recursive doubling over an arbitrary
// rank group (me is the caller's index in group), with the standard
// fold/unfold for non-power-of-two sizes and wire-format sends on tags
// tagBase..tagBase+2·len(group). At WireFP16 every participant rounds its
// own partial through the wire before each exchange, so both peers compute
// half(a)+half(b) and stay bit-identical; a final round trip aligns the
// unfold copies with the in-game ranks. It is the cross-node phase of the
// hybrid reducer (disjoint concurrent groups are safe: messages match by
// sender).
func (c *Comm) RecursiveDoublingGroupWire(data []float32, group []int, me int, w Wire, tagBase int) {
	n := len(group)
	if n <= 1 {
		return
	}
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	rem := n - pow2

	inGame := true
	if me >= pow2 {
		c.SendWire(group[me-pow2], tagBase, data, w)
		inGame = false
	} else if me < rem {
		c.RecvWireAdd(group[me+pow2], tagBase, data, w)
	}

	if inGame {
		for dist := 1; dist < pow2; dist *= 2 {
			peer := me ^ dist
			roundTrip(data, w)
			c.SendWire(group[peer], tagBase+dist, data, w)
			c.RecvWireAdd(group[peer], tagBase+dist, data, w)
		}
		roundTrip(data, w)
	}

	if me >= pow2 {
		c.RecvWireCopy(group[me-pow2], tagBase+1<<19, data, w)
	} else if me < rem {
		c.SendWire(group[me+pow2], tagBase+1<<19, data, w)
	}
}

// treeAllreduceWire reduces up a binomial tree with wire-format sends and
// broadcasts the root's wire-rounded result back down.
func (c *Comm) treeAllreduceWire(data []float32, w Wire) {
	n := c.Size()
	rank := c.rank
	for bit := 1; bit < n; bit *= 2 {
		if rank&bit != 0 {
			c.SendWire(rank&^bit, tagAllreduce+bit, data, w)
			break
		}
		child := rank | bit
		if child < n {
			c.RecvWireAdd(child, tagAllreduce+bit, data, w)
		}
	}
	if rank == 0 {
		roundTrip(data, w)
	}
	// Wire-format binomial broadcast of the rounded result.
	vrank := rank
	if vrank != 0 {
		parent := vrank & (vrank - 1)
		c.RecvWireCopy(parent, tagBcast, data, w)
	}
	for bit := 1; bit < n; bit *= 2 {
		if vrank&(bit-1) == 0 && vrank&bit == 0 {
			child := vrank | bit
			if child < n {
				c.SendWire(child, tagBcast, data, w)
			}
		}
	}
}
