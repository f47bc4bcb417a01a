package fleet

import (
	"hash/maphash"
	"math"

	"repro/internal/mpi"
	"repro/internal/simnet"
)

// routerState is the rank-0 scatter/gather loop's working set. Only the
// router goroutine touches it; everything shared with the API side goes
// through the Fleet's channels and atomics.
type routerState struct {
	f *Fleet
	c *mpi.Comm

	dead        []bool // per-shard: confirmed dead (a dead reply was seen)
	outstanding []int  // per-shard: tiles scattered and not yet gathered
	pending     []*tileJob
	inflight    int // tiles admitted and not yet retired (pending + scattered)

	// window is the scratch the router crops tile payloads into; sends copy
	// out of it, so one buffer serves every scatter.
	window []float32

	// Rolling-prepare state: prepGen is being installed, prepNext is the
	// next shard to prepare, prepAck answers the SwapWeights caller.
	prepGen  *generation
	prepNext int
	prepAck  chan error

	// Retire-broadcast state.
	retireGen  *generation
	retireLeft int
	retireAck  chan error

	draining bool
}

// router is the rank-0 body: admit requests, scatter tile windows to
// shards, gather and stitch keep-regions, re-dispatch around dead shards,
// and run the control plane of rolling weight swaps.
func (f *Fleet) router(c *mpi.Comm) {
	notify := make(chan struct{}, 1)
	c.SetNotify(notify)
	defer c.SetNotify(nil)

	th, tw := f.cfg.Tile.TileH, f.cfg.Tile.TileW
	rt := &routerState{
		f:           f,
		c:           c,
		dead:        make([]bool, f.cfg.Shards),
		outstanding: make([]int, f.cfg.Shards),
		window:      make([]float32, f.channels*th*tw),
	}

	for {
		rt.dispatch()
		f.routerClock.Store(math.Float64bits(c.Clock()))
		if rt.draining && rt.idle() {
			break
		}
		if rt.gather() {
			continue
		}
		if rt.draining {
			// Admissions are over; only shard replies and swap control can
			// move the state forward.
			select {
			case m := <-f.ctlCh:
				rt.handleCtl(m)
			case <-notify:
			}
			continue
		}
		select {
		case req := <-f.admitCh:
			rt.admit(req)
		case m := <-f.ctlCh:
			rt.handleCtl(m)
		case <-notify:
		case <-f.stop:
			rt.draining = true
			// Close flipped closed before signalling stop, so admitCh can
			// only hold requests admitted before the flip — drain them all;
			// accepted requests complete even across Close.
			for {
				select {
				case req := <-f.admitCh:
					rt.admit(req)
					continue
				default:
				}
				break
			}
		}
	}

	// Shards are idle (every tile retired, no swap in flight): shut them
	// down and collect their acks so Close returns only after every replica
	// engine is released.
	for s := 0; s < f.cfg.Shards; s++ {
		c.SendMeta(s+1, tagCtl, &wireCtl{kind: ctlShutdown})
	}
	for left := f.cfg.Shards; left > 0; {
		_, meta := c.RecvMeta(mpi.AnySource, tagResult)
		if ack, ok := meta.(*ctlAck); ok && ack.kind == ctlShutdown {
			left--
		}
	}
	f.routerClock.Store(math.Float64bits(c.Clock()))
	close(f.routerGone)
}

// idle reports whether the router has nothing left to do: no tile admitted
// and unretired, no swap protocol mid-flight.
func (rt *routerState) idle() bool {
	return rt.inflight == 0 && rt.prepGen == nil && rt.retireGen == nil
}

// admit decomposes a request into tile jobs and queues them for dispatch.
func (rt *routerState) admit(req *request) {
	jobs := make([]tileJob, len(req.tiles)) // one slab per request
	for i, t := range req.tiles {
		jobs[i] = tileJob{req: req, tile: t, shard: -1}
		rt.pending = append(rt.pending, &jobs[i])
	}
	rt.inflight += len(jobs)
}

// healthy returns the number of live shards.
func (rt *routerState) healthy() int {
	n := 0
	for _, d := range rt.dead {
		if !d {
			n++
		}
	}
	return n
}

// route picks the shard for a job: its hash-affine home if live and under
// the admission bound, else the least-loaded live shard with headroom.
// Returns -1 when every live shard is at its bound (the job waits) and
// -2 when no live shard exists at all.
func (rt *routerState) route(j *tileJob) int {
	f := rt.f
	var h maphash.Hash
	h.SetSeed(f.hashSeed)
	h.WriteByte(byte(j.tile.Y))
	h.WriteByte(byte(j.tile.Y >> 8))
	h.WriteByte(byte(j.tile.X))
	h.WriteByte(byte(j.tile.X >> 8))
	home := int(h.Sum64() % uint64(f.cfg.Shards))
	best, load := -1, f.cfg.AdmitPerShard
	alive := false
	for s := 0; s < f.cfg.Shards; s++ {
		if rt.dead[s] {
			continue
		}
		alive = true
		if rt.outstanding[s] < load {
			best, load = s, rt.outstanding[s]
		}
	}
	if !alive {
		return -2
	}
	// Affinity holds while the home shard is admissible and not a
	// straggler; once it runs a full batch ahead of the least-loaded
	// shard, the tile spills there instead.
	if !rt.dead[home] && rt.outstanding[home] < f.cfg.AdmitPerShard &&
		rt.outstanding[home]-load < f.cfg.MaxBatch {
		return home
	}
	return best
}

// dispatch scatters as many pending tiles as admission bounds allow. Jobs
// whose request already failed retire without travelling; jobs with no
// live shard anywhere fail their request typed.
func (rt *routerState) dispatch() {
	f := rt.f
	kept := rt.pending[:0]
	for i, j := range rt.pending {
		if j.req.failed() {
			rt.inflight--
			j.req.finish(f, 1)
			continue
		}
		s := rt.route(j)
		switch s {
		case -2:
			j.req.fail(errNoShards)
			rt.inflight--
			j.req.finish(f, 1)
			continue
		case -1:
			// Every live shard is at its admission bound: keep this and the
			// rest pending in order.
			kept = append(kept, rt.pending[i:]...)
			rt.pending = kept
			return
		}
		rt.scatter(j, s)
	}
	rt.pending = kept
}

// scatter crops the job's tile window out of the request fields and ships
// it to the shard as a real payload.
func (rt *routerState) scatter(j *tileJob, shard int) {
	f := rt.f
	th, tw := f.cfg.Tile.TileH, f.cfg.Tile.TileW
	fs := j.req.fields.Shape()
	ih, iw := fs[1], fs[2]
	src := j.req.fields.Data()
	for ch := 0; ch < f.channels; ch++ {
		for y := 0; y < th; y++ {
			srow := src[(ch*ih+j.tile.Y+y)*iw+j.tile.X:]
			copy(rt.window[(ch*th+y)*tw:(ch*th+y+1)*tw], srow[:tw])
		}
	}
	j.shard = shard
	j.sent++
	rt.outstanding[shard]++
	rt.c.SendPayload(shard+1, tagTile, rt.window, j)
}

// gather drains every delivered shard message — tile results and control
// acks — and returns whether anything was processed.
func (rt *routerState) gather() bool {
	any := false
	for {
		payload, meta, ok := rt.c.TryRecvMeta(mpi.AnySource, tagResult)
		if !ok {
			return any
		}
		any = true
		switch m := meta.(type) {
		case *wireResult:
			rt.gatherResult(m, payload)
		case *ctlAck:
			rt.handleAck(m)
		}
	}
}

// gatherResult retires (or re-dispatches) one scattered tile.
func (rt *routerState) gatherResult(m *wireResult, payload []float32) {
	f := rt.f
	j := m.job
	rt.outstanding[j.shard]--
	switch {
	case m.err != nil:
		j.req.fail(m.err)
	case m.status == replyDead:
		rt.markDead(j.shard)
		if !j.req.failed() {
			if rt.healthy() == 0 {
				j.req.fail(errNoShards)
			} else {
				// Re-dispatch: the tile re-enters the queue and runs on a
				// live shard with the same pinned weight generation.
				j.shard = -1
				j.req.redisp.Add(1)
				f.redisp.Add(1)
				rt.pending = append(rt.pending, j)
				return
			}
		}
	case m.status == replyExited:
		// The keep-region stays zero — class 0, background — so exited
		// tiles need no payload and no stitch.
		j.req.exited.Add(1)
		f.exited.Add(1)
	case m.status == replyOK:
		if !j.req.failed() {
			rt.stitch(j, payload)
			f.tiles.Add(1)
		}
	}
	if payload != nil {
		rt.c.Release(payload)
	}
	rt.inflight--
	j.req.finish(f, 1)
}

// stitch writes a keep-region payload (flattened rows) into the request
// mask at the tile's absolute position.
func (rt *routerState) stitch(j *tileJob, payload []float32) {
	t := j.tile
	kw := t.KeepX1 - t.KeepX0
	md := j.req.mask.Data()
	w := j.req.mask.Shape()[1]
	for y := t.KeepY0; y < t.KeepY1; y++ {
		row := md[(t.Y+y)*w+t.X+t.KeepX0:]
		copy(row[:kw], payload[(y-t.KeepY0)*kw:])
	}
}

// markDead records a shard death once.
func (rt *routerState) markDead(shard int) {
	if !rt.dead[shard] {
		rt.dead[shard] = true
		rt.f.deadShards.Add(1)
	}
}

// handleCtl starts a swap-protocol phase requested by SwapWeights.
func (rt *routerState) handleCtl(m ctlMsg) {
	switch m.kind {
	case ctlPrepare:
		rt.prepGen, rt.prepNext, rt.prepAck = m.gen, 0, m.ack
		rt.prepareNext()
	case ctlRetire:
		rt.retireGen, rt.retireLeft, rt.retireAck = m.gen, 0, m.ack
		for s := 0; s < rt.f.cfg.Shards; s++ {
			rt.c.SendMeta(s+1, tagCtl, &wireCtl{kind: ctlRetire, gen: m.gen})
			rt.retireLeft++
		}
		if rt.retireLeft == 0 {
			rt.retireGen = nil
			rt.retireAck <- nil
		}
	}
}

// prepareNext ships the new weights to the next live shard of the rolling
// prepare — one shard at a time, so the fleet never has more than one
// shard paused for warm-up. When every shard is prepared, the SwapWeights
// caller is released to flip admissions.
func (rt *routerState) prepareNext() {
	for ; rt.prepNext < rt.f.cfg.Shards; rt.prepNext++ {
		if rt.dead[rt.prepNext] {
			continue
		}
		rt.c.SendPayload(rt.prepNext+1, tagCtl, rt.prepGen.wire, &wireCtl{kind: ctlPrepare, gen: rt.prepGen})
		rt.prepNext++
		return
	}
	rt.prepGen = nil
	rt.prepAck <- nil
}

// handleAck advances the swap protocol on a shard acknowledgement.
func (rt *routerState) handleAck(a *ctlAck) {
	switch a.kind {
	case ctlPrepare:
		if rt.prepGen != nil {
			if a.err != nil {
				// Abort the roll: the caller cleans up with a retire.
				rt.prepGen = nil
				rt.prepAck <- a.err
				return
			}
			rt.prepareNext()
		}
	case ctlRetire:
		if rt.retireGen != nil {
			rt.retireLeft--
			if rt.retireLeft == 0 {
				rt.retireGen = nil
				rt.retireAck <- nil
			}
		}
	}
}

// faultFabric unwraps the fleet's fabric when chaos is scheduled on it.
func (f *Fleet) faultFabric() *simnet.FaultFabric {
	ff, _ := f.fabric.(*simnet.FaultFabric)
	return ff
}
