package horovod

import (
	"fmt"

	"repro/internal/mpi"
)

// Bucketed gradient exchange.
//
// Fusing whatever tensors happen to be complete at the root would make the
// fused layout — and with it the floating-point summation order — depend
// on arrival timing. The exchange instead fixes a *plan*: tensors are
// partitioned once, in descending id order (matching the back-to-front
// order backward passes produce gradients), into size-capped fusion
// buckets. Every rank, every step, and both the serial
// (Exchange) and overlapped (BeginStep/Push/Wait) drivers reduce exactly
// the same fused buffers, which makes overlapped training bit-identical to
// serial training at FP32.
//
// The negotiation itself still runs over the radix-r control tree: ranks
// mark per-tensor readiness up the tree (kindReadyOne), and when the root
// sees a bucket's last tensor complete on every rank it relays a
// kindExecBucket order down and all ranks reduce that bucket. Control
// messages are pre-boxed per tensor/bucket, fusion buffers persist across
// steps, and wire payloads are pooled, so a steady-state exchange performs
// no heap allocation.
//
// Bucket 0 (the first-ready bucket) carries one extra trailing slot: a
// step flag each rank contributes to and every rank reads back reduced.
// The trainer folds its collective cancellation vote into it, replacing
// the dedicated all-reduce it used to pay every step.

// DefaultFusionBufferBytes is the bucket size cap when the Config leaves
// FusionBufferBytes zero.
const DefaultFusionBufferBytes = 64 << 10

// bucket is one planned fusion group.
type bucket struct {
	ids  []TensorID // members, descending id order
	offs []int      // float offset of each member in the fused buffer
	n    int        // fused floats, including the flag slot on bucket 0
}

// pushMsg hands one finished gradient to the exchange goroutine.
type pushMsg struct {
	id   TensorID
	data []float32
}

// beginMsg opens one overlapped step.
type beginMsg struct {
	flag    float32
	compute float64 // virtual compute seconds overlapped with the exchange
}

// PlanBuckets fixes the fusion-bucket layout for the session: tensor id i
// has sizes[i] float32 elements, identical on every rank. Tensors are
// grouped in descending id order into buckets of at most
// cfg.FusionBufferBytes fused payload (one oversized tensor still gets its
// own bucket). All ranks must plan with identical sizes. Calling it again
// replaces the plan (tensor sizes must be stable across the steps that
// share one plan).
func (s *Session) PlanBuckets(sizes []int) {
	if len(sizes) == 0 {
		panic("horovod: PlanBuckets with no tensors")
	}
	capBytes := s.cfg.FusionBufferBytes
	if capBytes <= 0 {
		capBytes = DefaultFusionBufferBytes
	}
	capFloats := capBytes / 4
	if capFloats < 1 {
		capFloats = 1
	}

	s.plan = nil
	var cur bucket
	flush := func() {
		if len(cur.ids) > 0 {
			s.plan = append(s.plan, cur)
			cur = bucket{}
		}
	}
	for id := len(sizes) - 1; id >= 0; id-- {
		if len(cur.ids) > 0 && cur.n+sizes[id] > capFloats {
			flush()
		}
		cur.offs = append(cur.offs, cur.n)
		cur.ids = append(cur.ids, TensorID(id))
		cur.n += sizes[id]
	}
	flush()
	s.plan[0].n++ // bucket 0's trailing flag slot

	s.bucketOf = make([]int, len(sizes))
	for b := range s.plan {
		for _, id := range s.plan[b].ids {
			s.bucketOf[id] = b
		}
	}
	s.fused = make([][]float32, len(s.plan))
	for b := range s.plan {
		s.fused[b] = make([]float32, s.plan[b].n)
	}
	s.sizes = append([]int(nil), sizes...)
	s.tensors = make([][]float32, len(sizes))
	s.counts = make([]int, len(sizes))
	s.bRemain = make([]int, len(s.plan))
	s.children_ = s.children()
	s.need = len(s.children_) + 1
	s.isRoot = s.comm.Rank() == 0

	s.readyMsgs = make([]any, len(sizes))
	for i := range s.readyMsgs {
		s.readyMsgs[i] = ctlMsg{kind: kindReadyOne, id: TensorID(i)}
	}
	s.execMsgs = make([]any, len(s.plan))
	for b := range s.execMsgs {
		s.execMsgs[b] = ctlMsg{kind: kindExecBucket, bucket: b}
	}
	s.wireElem = 4
	if wf, ok := s.reducer.(interface{ WireBytesPerElem() int }); ok {
		s.wireElem = wf.WireBytesPerElem()
	}
}

// NumBuckets returns how many fusion buckets the plan holds.
func (s *Session) NumBuckets() int { return len(s.plan) }

// resetStep clears per-step negotiation state.
func (s *Session) resetStep(flag float32) {
	for i := range s.counts {
		s.counts[i] = 0
		s.tensors[i] = nil
	}
	for b := range s.bRemain {
		s.bRemain[b] = len(s.plan[b].ids)
	}
	s.executed = 0
	s.executedA.Store(0)
	s.flagIn = flag
	s.flagOut = 0
	s.execOrder = s.execOrder[:0]
}

// sendCtlBoxed sends a pre-boxed control message (no allocation).
func (s *Session) sendCtlBoxed(dst int, m any) {
	s.comm.SendMeta(dst, tagCtlBase+s.epoch%epochWindow, m)
	s.stats.CtlSent++
}

// localReady records one readiness mark for a tensor; at `need` marks the
// whole subtree is ready and the mark propagates up (or, at the root,
// advances the tensor's bucket toward execution).
func (s *Session) localReady(id TensorID) {
	s.counts[id]++
	if s.counts[id] != s.need {
		return
	}
	if !s.isRoot {
		s.sendCtlBoxed(s.parent(), s.readyMsgs[id])
		return
	}
	b := s.bucketOf[id]
	s.bRemain[b]--
	if s.bRemain[b] == 0 {
		for _, c := range s.children_ {
			s.sendCtlBoxed(c, s.execMsgs[b])
		}
		s.execBucket(b)
	}
}

// handleBucketCtl dispatches one control message.
func (s *Session) handleBucketCtl(m ctlMsg) {
	switch m.kind {
	case kindReadyOne:
		s.localReady(m.id)
	case kindExecBucket:
		// Relay down the tree first (the paper's recursive broadcast), then
		// initiate the collective.
		for _, c := range s.children_ {
			s.sendCtlBoxed(c, s.execMsgs[m.bucket])
		}
		s.execBucket(m.bucket)
	}
}

// execBucket gathers the bucket's tensors into its persistent fusion
// buffer, reduces, and scatters the sums back.
func (s *Session) execBucket(b int) {
	bk := &s.plan[b]
	buf := s.fused[b]
	for k, id := range bk.ids {
		t := s.tensors[id]
		copy(buf[bk.offs[k]:bk.offs[k]+len(t)], t)
	}
	if b == 0 {
		buf[bk.n-1] = s.flagIn
	}
	s.reducer.Reduce(s.comm, buf)
	for k, id := range bk.ids {
		t := s.tensors[id]
		copy(t, buf[bk.offs[k]:bk.offs[k]+len(t)])
	}
	if b == 0 {
		s.flagOut = buf[bk.n-1]
	}
	s.stats.Batches++
	if s.comm.Size() > 1 {
		s.stats.WireBytes += int64(bk.n) * int64(s.wireElem)
	}
	s.execOrder = append(s.execOrder, bk.ids...)
	s.executed++
	s.executedA.Add(1)
}

// Exchange negotiates and reduces one step's gradients through the bucket
// plan, synchronously (the serial driver). readyOrder is the order this
// rank produced gradients; tensors maps tensor id → this rank's buffer
// (dense, one per planned tensor); flag is this rank's step-flag
// contribution. It returns the reduced flag sum. The result is
// bit-identical to the overlapped BeginStep/Push/Wait driver.
func (s *Session) Exchange(readyOrder []TensorID, tensors [][]float32, flag float32) float32 {
	if s.plan == nil {
		panic("horovod: Exchange before PlanBuckets")
	}
	if len(readyOrder) != len(s.sizes) {
		panic(fmt.Sprintf("horovod: %d ready ids for %d planned tensors",
			len(readyOrder), len(s.sizes)))
	}
	s.resetStep(flag)
	copy(s.tensors, tensors)
	for _, id := range readyOrder {
		s.localReady(id)
	}
	for s.executed < len(s.plan) {
		s.handleBucketCtl(s.recvCtl())
	}
	s.epoch++
	return s.flagOut
}

// BeginStep opens an overlapped exchange step: a per-rank background
// goroutine negotiates and reduces buckets as gradients stream in through
// Push, while the caller's backward pass keeps computing. The caller must
// Push every planned tensor exactly once and then Wait.
//
// computeSeconds is the step's virtual compute time. The exchange models
// the overlap on the rank's virtual clock: the k-th of K pushed gradients
// is treated as becoming available k/K of the way through the compute
// phase (backward produces gradients continuously back-to-front), so
// collective traffic is timestamped along the backward timeline and the
// virtual step costs max(compute, staggered exchange) instead of their
// sum. Pass 0 to leave the clock to the caller.
func (s *Session) BeginStep(flag float32, computeSeconds float64) {
	if s.plan == nil {
		panic("horovod: BeginStep before PlanBuckets")
	}
	if !s.loopStarted {
		s.startLoop()
	}
	s.beginCh <- beginMsg{flag: flag, compute: computeSeconds}
}

// Push hands a finished gradient to the exchange goroutine. It never
// blocks (the channel holds every tensor of a step), so it is safe to call
// from an executor's OnParamGrad hook mid-backward.
func (s *Session) Push(id TensorID, data []float32) {
	s.pushCh <- pushMsg{id: id, data: data}
}

// Wait blocks until every bucket of the step has been reduced on this rank
// and returns the reduced step flag. After Wait, all pushed buffers hold
// global sums and the comm is free for the caller's own collectives.
func (s *Session) Wait() float32 {
	before := s.executedA.Load()
	flag := <-s.doneCh
	s.lastOverlap = float64(before) / float64(len(s.plan))
	return flag
}

// LastOverlap reports the fraction of the last overlapped step's buckets
// that had already been reduced when Wait was called — i.e. exchange work
// hidden behind the backward pass. Serial Exchange steps report 0.
func (s *Session) LastOverlap() float64 { return s.lastOverlap }

// Close stops the exchange goroutine (if one was started). The session
// must be between steps.
func (s *Session) Close() {
	if !s.loopStarted {
		return
	}
	close(s.closeCh)
	s.comm.SetNotify(nil)
	s.loopStarted = false
}

func (s *Session) startLoop() {
	s.pushCh = make(chan pushMsg, len(s.sizes)+1)
	s.beginCh = make(chan beginMsg)
	s.doneCh = make(chan float32)
	s.closeCh = make(chan struct{})
	s.notifyCh = make(chan struct{}, 1)
	s.comm.SetNotify(s.notifyCh)
	s.loopStarted = true
	go s.loop()
}

func (s *Session) loop() {
	for {
		select {
		case <-s.closeCh:
			return
		case b := <-s.beginCh:
			s.runStreamStep(b)
		}
	}
}

// runStreamStep is one overlapped step on the exchange goroutine: it owns
// the comm from BeginStep until it posts the result consumed by Wait,
// multiplexing local gradient pushes with control messages (mailbox
// deliveries wake it through the notify channel; spurious tokens just
// cause an empty drain).
func (s *Session) runStreamStep(b beginMsg) {
	s.resetStep(b.flag)
	t0 := s.comm.Clock()
	pushes := 0
	s.drainCtl() // control traffic may have arrived before this step began
	for s.executed < len(s.plan) {
		select {
		case p := <-s.pushCh:
			if len(p.data) != s.sizes[p.id] {
				panic(fmt.Sprintf("horovod: tensor %d pushed with %d elements, planned %d",
					p.id, len(p.data), s.sizes[p.id]))
			}
			pushes++
			if b.compute > 0 {
				// Model the backward timeline: this gradient became
				// available pushes/K of the way through the compute phase.
				s.comm.AdvanceTo(t0 + b.compute*float64(pushes)/float64(len(s.sizes)))
			}
			s.tensors[p.id] = p.data
			s.localReady(p.id)
		case <-s.notifyCh:
			s.drainCtl()
		case <-s.closeCh:
			// The step was abandoned (an error between BeginStep and Wait);
			// unblock so the goroutine can exit instead of leaking.
			return
		}
	}
	if b.compute > 0 {
		// The compute phase is fully charged even if the exchange finished
		// hiding behind it.
		s.comm.AdvanceTo(t0 + b.compute)
	}
	s.epoch++
	select {
	case s.doneCh <- s.flagOut:
	case <-s.closeCh: // nobody is waiting; the session was closed mid-step
	}
}

// drainCtl consumes every queued control message for the current epoch.
func (s *Session) drainCtl() {
	for {
		_, meta, ok := s.comm.TryRecvMeta(mpi.AnySource, tagCtlBase+s.epoch%epochWindow)
		if !ok {
			return
		}
		s.stats.CtlReceived++
		s.handleBucketCtl(meta.(ctlMsg))
	}
}
