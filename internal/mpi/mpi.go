// Package mpi provides the message-passing substrate the paper's training
// stack assumes: ranks with point-to-point Send/Recv and the collective
// algorithms (ring, recursive doubling, binomial tree) that real MPI
// implementations choose between. Ranks run as goroutines in one process;
// payloads move for real; time advances on per-rank virtual clocks charged
// from a simnet.Fabric, so both correctness and at-scale timing behaviour
// are observable.
package mpi

import (
	"fmt"
	"sync"

	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Tag namespaces for internal collectives sit high so user tags stay free.
const (
	tagAllreduce = 1 << 20
	tagBcast     = 2 << 20
	tagBarrier   = 3 << 20
)

type message struct {
	src, tag int
	payload  []float32
	meta     any     // optional control payload (used by horovod)
	arrive   float64 // virtual arrival time at dst
}

// mailbox is one rank's incoming message store with (src, tag) matching.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []message
	// notify, when set, receives a non-blocking token on every delivery so
	// a consumer can wait on a Go channel instead of the condvar (the
	// overlapped gradient exchange waits on local pushes and incoming
	// control messages at once).
	notify chan<- struct{}
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.msgs = append(mb.msgs, m)
	n := mb.notify
	mb.mu.Unlock()
	mb.cond.Broadcast()
	if n != nil {
		select {
		case n <- struct{}{}:
		default: // a token is already pending; the drain loop will see us
		}
	}
}

// take blocks until a message from src with tag is present and removes it.
// src == AnySource matches any sender.
func (mb *mailbox) take(src, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.msgs {
			if (src == AnySource || m.src == src) && m.tag == tag {
				mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
				return m
			}
		}
		mb.cond.Wait()
	}
}

// tryTake removes a matching message without blocking.
func (mb *mailbox) tryTake(src, tag int) (message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i, m := range mb.msgs {
		if (src == AnySource || m.src == src) && m.tag == tag {
			mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
			return m, true
		}
	}
	return message{}, false
}

// AnySource matches any sending rank in Recv.
const AnySource = -1

// World is a communicator universe: N ranks over a fabric.
type World struct {
	fabric simnet.Fabric
	boxes  []*mailbox
	// pool recycles wire payload buffers: Send copies draw from it, and
	// receivers that are done with a payload hand it back with Release, so
	// steady-state collective traffic allocates nothing.
	pool *tensor.Pool
	// allRanks is the identity rank group, shared by full-world rings so
	// they need not rebuild it per collective.
	allRanks []int

	statsMu sync.Mutex
	// MessageCount and BytesSent are aggregate traffic statistics.
	messageCount int64
	bytesSent    int64
}

// NewWorld creates a world sized by the fabric.
func NewWorld(fabric simnet.Fabric) *World {
	n := fabric.Size()
	boxes := make([]*mailbox, n)
	for i := range boxes {
		boxes[i] = newMailbox()
	}
	allRanks := make([]int, n)
	for i := range allRanks {
		allRanks[i] = i
	}
	return &World{fabric: fabric, boxes: boxes, pool: tensor.NewPool(), allRanks: allRanks}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.fabric.Size() }

// Fabric returns the underlying fabric.
func (w *World) Fabric() simnet.Fabric { return w.fabric }

// MessageCount returns the total point-to-point messages sent so far.
func (w *World) MessageCount() int64 {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.messageCount
}

// BytesSent returns the total payload bytes sent so far.
func (w *World) BytesSent() int64 {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.bytesSent
}

// Run spawns one goroutine per rank executing body and waits for all to
// finish. It returns the maximum final virtual clock (the job's makespan).
func (w *World) Run(body func(c *Comm)) float64 {
	n := w.Size()
	clocks := make([]float64, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{world: w, rank: rank}
			body(c)
			clocks[rank] = c.clock
		}(r)
	}
	wg.Wait()
	maxClock := 0.0
	for _, t := range clocks {
		if t > maxClock {
			maxClock = t
		}
	}
	return maxClock
}

// Comm is one rank's endpoint. Not safe for concurrent use by multiple
// goroutines (like an MPI rank, it is single-threaded).
type Comm struct {
	world *World
	rank  int
	clock float64
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.Size() }

// Clock returns this rank's virtual time in seconds.
func (c *Comm) Clock() float64 { return c.clock }

// Advance adds local compute time to the rank's clock.
func (c *Comm) Advance(seconds float64) {
	if seconds < 0 {
		panic("mpi: negative time advance")
	}
	c.clock += seconds
}

// AdvanceTo raises the rank's clock to at least t (no-op if already past).
// Overlapped pipelines use it to model work that becomes available partway
// through a concurrent compute phase: the consumer's clock rides
// max(availability, message arrival) instead of summing the two phases.
func (c *Comm) AdvanceTo(t float64) {
	if t > c.clock {
		c.clock = t
	}
}

// Send transmits data to dst with the given tag. The payload is copied so
// the caller may reuse the buffer. Virtual send cost (injection overhead)
// is charged to the sender; wire time is charged to the receiver via the
// arrival timestamp.
func (c *Comm) Send(dst, tag int, data []float32) {
	c.sendInternal(dst, tag, data, nil)
}

// SendMeta transmits a control payload (no float data).
func (c *Comm) SendMeta(dst, tag int, meta any) {
	c.sendInternal(dst, tag, nil, meta)
}

// SendPayload transmits data and a control payload in one message — the
// scatter/gather pattern of the serving fleet, where a tile window (or a
// stitched keep-region) rides the wire together with the routing record
// that identifies it. The data is copied like Send; wire time is charged
// for the payload size.
func (c *Comm) SendPayload(dst, tag int, data []float32, meta any) {
	c.sendInternal(dst, tag, data, meta)
}

func (c *Comm) sendInternal(dst, tag int, data []float32, meta any) {
	if dst < 0 || dst >= c.world.Size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	var cp []float32
	if data != nil {
		cp = c.world.pool.GetF32(len(data))
		copy(cp, data)
	}
	bytes := len(data)*4 + 64 // payload plus a small header
	transfer := c.world.fabric.TransferSeconds(c.rank, dst, bytes)
	m := message{src: c.rank, tag: tag, payload: cp, meta: meta, arrive: c.clock + transfer}
	// Injection overhead: a fraction of the transfer is sender-occupied.
	c.clock += c.world.fabric.TransferSeconds(c.rank, dst, 0)

	w := c.world
	w.statsMu.Lock()
	w.messageCount++
	w.bytesSent += int64(bytes)
	w.statsMu.Unlock()

	w.boxes[dst].put(m)
}

// Recv blocks for a message from src (or AnySource) with tag, returning the
// payload. The receiver's clock advances to at least the arrival time.
func (c *Comm) Recv(src, tag int) []float32 {
	data, _ := c.RecvMeta(src, tag)
	return data
}

// RecvMeta is Recv returning both payload and control metadata.
func (c *Comm) RecvMeta(src, tag int) ([]float32, any) {
	m := c.world.boxes[c.rank].take(src, tag)
	if m.arrive > c.clock {
		c.clock = m.arrive
	}
	return m.payload, m.meta
}

// TryRecvMeta is RecvMeta without blocking: it returns ok=false when no
// matching message has been delivered yet.
func (c *Comm) TryRecvMeta(src, tag int) ([]float32, any, bool) {
	m, ok := c.world.boxes[c.rank].tryTake(src, tag)
	if !ok {
		return nil, nil, false
	}
	if m.arrive > c.clock {
		c.clock = m.arrive
	}
	return m.payload, m.meta, true
}

// SetNotify registers ch to receive a non-blocking token whenever a message
// is delivered to this rank, letting a consumer multiplex the mailbox with
// Go channels (see TryRecvMeta). Pass nil to unregister.
func (c *Comm) SetNotify(ch chan<- struct{}) {
	mb := c.world.boxes[c.rank]
	mb.mu.Lock()
	mb.notify = ch
	mb.mu.Unlock()
}

// GetBuf returns a scratch buffer from the world's wire pool (unspecified
// contents). Pair with Release.
func (c *Comm) GetBuf(n int) []float32 { return c.world.pool.GetF32(n) }

// Release returns a buffer obtained from Recv, RecvMeta, or GetBuf to the
// wire pool for reuse. Callers that retain a received payload simply skip
// Release and the buffer is garbage-collected as before; callers on hot
// collective paths release so steady-state traffic allocates nothing. The
// buffer must not be used afterwards.
func (c *Comm) Release(buf []float32) { c.world.pool.PutF32(buf) }

// Barrier synchronizes all ranks (dissemination algorithm) and aligns
// clocks to the latest participant.
func (c *Comm) Barrier() {
	n := c.Size()
	for dist := 1; dist < n; dist *= 2 {
		to := (c.rank + dist) % n
		from := (c.rank - dist + n) % n
		c.SendMeta(to, tagBarrier+dist, nil)
		c.RecvMeta(from, tagBarrier+dist)
	}
}

// Bcast broadcasts root's buffer to all ranks (binomial tree). Every rank
// passes its own buffer; non-roots receive into it.
func (c *Comm) Bcast(root int, data []float32) {
	n := c.Size()
	vrank := (c.rank - root + n) % n
	// Receive from parent (unless root).
	if vrank != 0 {
		// Parent clears the lowest set bit.
		parent := vrank & (vrank - 1)
		src := (parent + root) % n
		got := c.Recv(src, tagBcast)
		copy(data, got)
		c.Release(got)
	}
	// Forward to children: set bits above the lowest set bit of vrank.
	for bit := 1; bit < n; bit *= 2 {
		if vrank&(bit-1) == 0 && vrank&bit == 0 {
			child := vrank | bit
			if child < n {
				c.Send((child+root)%n, tagBcast, data)
			}
		}
	}
}
