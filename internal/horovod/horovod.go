// Package horovod reproduces the collective-coordination layer the paper
// built on (and improved): because each rank's dynamic scheduler finishes
// gradient tensors in a different order, ranks must negotiate a single
// total order of all-reduce operations or deadlock. Stock Horovod routes
// every rank's per-tensor readiness message through rank 0, which at
// 27,360 ranks must absorb millions of messages per second; the paper's
// fix (Section V-A3) aggregates readiness up a radix-r tree and relays
// execution orders back down, bounding every rank's load at r+1 messages
// per tensor. Both modes are implemented here — the flat control plane is
// simply the tree with radix = worldSize−1.
//
// There is one exchange protocol (bucket.go): gradients fuse into
// size-capped buckets planned once from the tensor shapes, readiness is
// negotiated per tensor up the tree, and each bucket is reduced once every
// rank has all its members. A serial driver (Exchange) and an overlapped
// one (BeginStep/Push/Wait) run the same plan, so they reduce bit-identical
// sums.
package horovod

import (
	"sync/atomic"

	"repro/internal/mpi"
)

const tagCtlBase = 12 << 20
const epochWindow = 1024

// TensorID identifies a gradient tensor consistently across ranks (the
// graph's parameter index).
type TensorID int

type ctlKind int

const (
	kindReadyOne   ctlKind = iota // one tensor became ready in this subtree
	kindExecBucket                // execute the given fusion bucket
)

// ctlMsg carries one tensor id or one bucket index, so every message is
// pre-boxed once and sending never allocates.
type ctlMsg struct {
	kind   ctlKind
	id     TensorID
	bucket int
}

// Config selects the control-plane shape and fusion behaviour.
type Config struct {
	// Radix is the aggregation-tree fan-out r. The paper found performance
	// insensitive for r in [2, 8]; radix = worldSize−1 degenerates to the
	// original flat Horovod control plane.
	Radix int
	// FusionBufferBytes caps the fused payload of one exchange bucket
	// (PlanBuckets). 0 takes DefaultFusionBufferBytes; any value below 4
	// gives every tensor its own bucket.
	FusionBufferBytes int
}

// Flat returns the stock-Horovod configuration for a given world size.
func Flat(worldSize int) Config {
	return Config{Radix: worldSize - 1}
}

// Tree returns the paper's hierarchical configuration.
func Tree(radix int) Config {
	return Config{Radix: radix}
}

// Stats counts one rank's control-plane traffic.
type Stats struct {
	CtlSent     int // control messages sent by this rank
	CtlReceived int // control messages received by this rank
	Batches     int // all-reduce batches (fusion buckets) executed
	// WireBytes is the gradient payload presented to the cross-node
	// reduction, at the reducer's cross-node wire width (each element
	// counted once per step, not per hop). Under the hybrid reducer the
	// intra-node NVLink phases always run FP32 and are not part of this
	// figure; actual per-hop fabric traffic is mpi.World.BytesSent.
	WireBytes int64
}

// Reducer is one all-reduce algorithm, called collectively by every rank:
// allreduce's Flat, Hybrid and CanonicalTree implement it.
type Reducer interface {
	Reduce(c *mpi.Comm, data []float32)
	Name() string
}

// Session drives the negotiation protocol for one rank across steps:
// PlanBuckets fixes the fusion buckets once, then every step runs either
// the serial Exchange or the overlapped BeginStep/Push/Wait. The bucket
// layout — and therefore the summation order — is fixed by the plan, not
// by arrival timing.
type Session struct {
	comm    *mpi.Comm
	cfg     Config
	reducer Reducer
	epoch   int
	stats   Stats

	// execOrder records the TensorIDs in executed order for the last step,
	// used by tests to verify the total order is rank-invariant.
	execOrder []TensorID

	// Exchange state (see bucket.go).
	plan      []bucket
	bucketOf  []int
	sizes     []int
	fused     [][]float32 // one persistent fusion buffer per bucket
	tensors   [][]float32 // this step's gradient buffers, by tensor id
	counts    []int       // readiness marks per tensor
	bRemain   []int       // root: tensors still incomplete per bucket
	children_ []int
	need      int
	isRoot    bool
	wireElem  int
	flagIn    float32
	flagOut   float32
	executed  int
	executedA atomic.Int32
	readyMsgs []any // pre-boxed kindReadyOne per tensor (alloc-free sends)
	execMsgs  []any // pre-boxed kindExecBucket per bucket

	// Streaming (overlapped) exchange goroutine.
	loopStarted bool
	lastOverlap float64
	pushCh      chan pushMsg
	beginCh     chan beginMsg
	doneCh      chan float32
	closeCh     chan struct{}
	notifyCh    chan struct{}
}

// NewSession creates a session. All ranks must use identical cfg.
func NewSession(c *mpi.Comm, reducer Reducer, cfg Config) *Session {
	if cfg.Radix < 1 {
		panic("horovod: radix must be ≥ 1")
	}
	return &Session{comm: c, cfg: cfg, reducer: reducer}
}

// Stats returns cumulative control-plane statistics for this rank.
func (s *Session) Stats() Stats { return s.stats }

// ExecOrder returns the tensor execution order of the most recent step.
func (s *Session) ExecOrder() []TensorID { return s.execOrder }

func (s *Session) parent() int { return (s.comm.Rank() - 1) / s.cfg.Radix }

func (s *Session) children() []int {
	var ch []int
	base := s.comm.Rank()*s.cfg.Radix + 1
	for i := 0; i < s.cfg.Radix; i++ {
		if c := base + i; c < s.comm.Size() {
			ch = append(ch, c)
		}
	}
	return ch
}

func (s *Session) recvCtl() ctlMsg {
	_, meta := s.comm.RecvMeta(mpi.AnySource, tagCtlBase+s.epoch%epochWindow)
	s.stats.CtlReceived++
	return meta.(ctlMsg)
}
