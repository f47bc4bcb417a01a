package fleet

import (
	"math"

	"repro/internal/infer"
	"repro/internal/mpi"
	"repro/internal/tensor"
)

// shardTile is one scattered tile as a shard holds it: the router's job
// handle plus the received window payload (owned by the shard until the
// reply is sent, then Released to the wire pool).
type shardTile struct {
	job     *tileJob
	payload []float32
	arrive  float64 // shard virtual clock when the tile came off the wire
}

// tileOutcome is a replica's verdict on one tile of a batch.
type tileOutcome struct {
	st     *shardTile
	status int
	keep   []float32 // flattened keep-region rows for replyOK
	err    error
}

// execBatch is one micro-batch handed to a replica: same-generation tiles
// plus the virtual arrival time the queueing model starts from.
type execBatch struct {
	gen     *generation
	tiles   []*shardTile
	arrive  float64 // shard clock when the batch was formed
	replica int
	// Filled by the replica:
	out     []tileOutcome
	decoded int // tiles that rode the full decoder (virtual charge basis)
	checked int // tiles that rode an exit-check (virtual charge basis)
}

// replicaCmd drives one replica goroutine.
type replicaCmd struct {
	kind  int // ctlPrepare / ctlRetire / ctlShutdown, or cmdExec
	batch *execBatch
	gen   *generation
	ack   chan error
}

const cmdExec = 100

// replica is one executor engine of a shard: a goroutine owning one
// infer.Runner per live weight generation. Runners are single-threaded, so
// all engine work happens on the replica goroutine; the shard rank body
// only does wire traffic and virtual-time accounting.
type replica struct {
	f       *Fleet
	cmds    chan replicaCmd
	done    chan<- *execBatch
	runners map[uint64]*infer.Runner
	scratch []*tensor.Tensor // per-slot [th,tw] stitch masks
	scores  []float64
	live    []infer.BatchItem
	liveIdx []int
}

func newReplica(f *Fleet, done chan<- *execBatch) *replica {
	th, tw := f.cfg.Tile.TileH, f.cfg.Tile.TileW
	scratch := make([]*tensor.Tensor, f.cfg.MaxBatch)
	for i := range scratch {
		scratch[i] = tensor.New(tensor.Shape{th, tw})
	}
	return &replica{
		f:       f,
		cmds:    make(chan replicaCmd, 1),
		done:    done,
		runners: map[uint64]*infer.Runner{},
		scratch: scratch,
		scores:  make([]float64, f.cfg.MaxBatch),
	}
}

// run is the replica goroutine body.
func (r *replica) run() {
	for cmd := range r.cmds {
		switch cmd.kind {
		case ctlPrepare:
			cmd.ack <- r.prepare(cmd.gen)
		case ctlRetire:
			if ru, ok := r.runners[cmd.gen.num]; ok {
				ru.Close()
				delete(r.runners, cmd.gen.num)
			}
			cmd.ack <- nil
		case ctlShutdown:
			for _, ru := range r.runners {
				ru.Close()
			}
			r.runners = nil
			cmd.ack <- nil
			return
		case cmdExec:
			r.exec(cmd.batch)
			r.done <- cmd.batch
		}
	}
}

// prepare builds and warms this replica's engine for a weight generation —
// the make-before-break half of a hot swap: the old generation keeps
// serving on its own runners while this one spins up.
func (r *replica) prepare(gen *generation) error {
	if _, ok := r.runners[gen.num]; ok {
		return nil
	}
	ru, err := infer.NewRunner(gen.net, r.f.cfg.Tile)
	if err != nil {
		return err
	}
	if err := ru.Warm(r.f.cfg.MaxBatch, r.f.cfg.EarlyExit); err != nil {
		ru.Close()
		return err
	}
	r.runners[gen.num] = ru
	return nil
}

// exec runs one same-generation micro-batch: skip tiles whose request
// already failed, exit-check the rest when adaptive serving is on, decode
// the survivors, and extract each keep-region into a reply buffer.
func (r *replica) exec(b *execBatch) {
	f := r.f
	th, tw := f.cfg.Tile.TileH, f.cfg.Tile.TileW
	b.out = make([]tileOutcome, len(b.tiles))
	r.live = r.live[:0]
	r.liveIdx = r.liveIdx[:0]
	for i, st := range b.tiles {
		b.out[i].st = st
		if st.job.req.failed() {
			b.out[i].status = replySkipped
			continue
		}
		slot := len(r.live)
		t := st.job.tile
		r.live = append(r.live, infer.BatchItem{
			Fields: tensor.FromSlice(tensor.Shape{f.channels, th, tw}, st.payload),
			// The window is already cropped: run it at origin and keep the
			// same sub-rectangle the router will stitch.
			Tile: infer.Tile{KeepY0: t.KeepY0, KeepY1: t.KeepY1, KeepX0: t.KeepX0, KeepX1: t.KeepX1},
			Mask: r.scratch[slot],
		})
		r.liveIdx = append(r.liveIdx, i)
	}
	if len(r.live) == 0 {
		return
	}
	ru, ok := r.runners[b.gen.num]
	if !ok {
		// Prepare always precedes the admission flip, but a late-built
		// replica (or a re-dispatched tile racing a retire) can still land
		// here; building on demand keeps the invariant "a pinned generation
		// can always execute".
		if err := r.prepare(b.gen); err != nil {
			r.failLive(b, err)
			return
		}
		ru = r.runners[b.gen.num]
	}
	items := r.live
	idx := r.liveIdx
	if f.cfg.EarlyExit {
		scores := r.scores[:len(items)]
		if err := ru.ExitScores(items, scores, f.cfg.ExitHead); err != nil {
			r.failLive(b, err)
			return
		}
		b.checked = len(items)
		kept := items[:0]
		keptIdx := idx[:0]
		for i, s := range scores {
			if s < f.cfg.ExitThreshold {
				b.out[idx[i]].status = replyExited
			} else {
				kept = append(kept, items[i])
				keptIdx = append(keptIdx, idx[i])
			}
		}
		items, idx = kept, keptIdx
	}
	if len(items) == 0 {
		return
	}
	if err := ru.RunBatch(items); err != nil {
		for _, i := range idx {
			if b.out[i].status == 0 {
				b.out[i].status = replySkipped
				b.out[i].err = err
			}
		}
		return
	}
	b.decoded = len(items)
	for slot, i := range idx {
		t := b.out[i].st.job.tile
		kw := t.KeepX1 - t.KeepX0
		keep := make([]float32, (t.KeepY1-t.KeepY0)*kw)
		md := items[slot].Mask.Data()
		for y := t.KeepY0; y < t.KeepY1; y++ {
			copy(keep[(y-t.KeepY0)*kw:], md[y*tw+t.KeepX0:y*tw+t.KeepX1])
		}
		b.out[i].status = replyOK
		b.out[i].keep = keep
	}
}

// failLive marks every not-yet-resolved live tile of the batch failed.
func (r *replica) failLive(b *execBatch, err error) {
	for _, i := range r.liveIdx {
		if b.out[i].status == 0 && b.out[i].err == nil {
			b.out[i].status = replySkipped
			b.out[i].err = err
		}
	}
}

// shard is the rank body of shard s (mpi rank s+1): receive scattered
// tiles, micro-batch them per weight generation onto replica engines,
// charge a queueing-model virtual clock, and gather replies back to the
// router. A shard whose node is chaos-scheduled dead stops computing the
// moment it observes the failure step and answers everything with dead
// replies — queued, in-flight, and future tiles alike.
func (f *Fleet) shard(c *mpi.Comm, s int) {
	notify := make(chan struct{}, 1)
	c.SetNotify(notify)
	defer c.SetNotify(nil)

	nrep := f.cfg.ShardReplicas
	done := make(chan *execBatch, nrep)
	replicas := make([]*replica, nrep)
	for r := range replicas {
		replicas[r] = newReplica(f, done)
		go replicas[r].run()
	}
	freeAt := make([]float64, nrep)
	busy := make([]bool, nrep)
	ff := f.faultFabric()
	dead := false

	// queues holds undispatched tiles FIFO per generation; genOrder keeps
	// dispatch age-ordered across generations.
	queues := map[*generation][]*shardTile{}
	var genOrder []*generation

	reply := func(st *shardTile, status int, keep []float32, err error) {
		c.SendPayload(0, tagResult, keep, &wireResult{job: st.job, status: status, err: err})
		if st.payload != nil {
			c.Release(st.payload)
		}
	}

	flushDead := func() {
		for _, g := range genOrder {
			for _, st := range queues[g] {
				reply(st, replyDead, nil, nil)
			}
			delete(queues, g)
		}
		genOrder = genOrder[:0]
	}

	// dispatch forms one micro-batch for an idle replica.
	dispatch := func() {
		for len(genOrder) > 0 {
			r := -1
			for i := range busy {
				if !busy[i] {
					r = i
					break
				}
			}
			if r < 0 {
				return
			}
			g := genOrder[0]
			q := queues[g]
			n := min(len(q), f.cfg.MaxBatch)
			// The batch is ready when its last tile came off the wire, not
			// when a replica picked it up — AdvanceTo below moves the comm
			// clock past earlier batches' compute, and charging that as
			// queueing time would serialize the replicas virtually.
			b := &execBatch{gen: g, tiles: q[:n:n], replica: r}
			for _, st := range b.tiles {
				b.arrive = math.Max(b.arrive, st.arrive)
			}
			if len(q) == n {
				delete(queues, g)
				genOrder = genOrder[1:]
			} else {
				queues[g] = q[n:]
			}
			busy[r] = true
			replicas[r].cmds <- replicaCmd{kind: cmdExec, batch: b}
		}
	}

	// complete charges a finished batch's virtual time and sends replies.
	complete := func(b *execBatch) {
		busy[b.replica] = false
		start := math.Max(b.arrive, freeAt[b.replica])
		cost := float64(b.decoded)*f.perTileVirtual + float64(b.checked)*f.perExitVirtual
		end := start + cost
		freeAt[b.replica] = end
		c.AdvanceTo(end)
		for i := range b.out {
			o := &b.out[i]
			if dead {
				// Death struck while the batch was in flight: results are
				// lost with the node, whatever was computed.
				reply(o.st, replyDead, nil, nil)
				continue
			}
			reply(o.st, o.status, o.keep, o.err)
		}
		f.shardClocks[s].Store(math.Float64bits(c.Clock()))
		dispatch() // the freed replica can take the next queued batch
	}

	stopReplicas := func() {
		ack := make(chan error, 1)
		for _, rp := range replicas {
			rp.cmds <- replicaCmd{kind: ctlShutdown, ack: ack}
			<-ack
		}
	}

	inflight := func() int {
		n := 0
		for _, b := range busy {
			if b {
				n++
			}
		}
		return n
	}

	for {
		// Drain finished batches first so replicas never sit idle behind
		// wire traffic.
		select {
		case b := <-done:
			complete(b)
			continue
		default:
		}
		if payload, meta, ok := c.TryRecvMeta(0, tagTile); ok {
			job := meta.(*tileJob)
			st := &shardTile{job: job, payload: payload, arrive: c.Clock()}
			if !dead && ff != nil && ff.FailedAsOf(c.Rank(), int(job.req.seq)) {
				dead = true
				flushDead()
			}
			if dead {
				reply(st, replyDead, nil, nil)
				continue
			}
			g := job.req.gen
			if _, ok := queues[g]; !ok {
				genOrder = append(genOrder, g)
			}
			queues[g] = append(queues[g], st)
			dispatch()
			continue
		}
		if payload, meta, ok := c.TryRecvMeta(0, tagCtl); ok {
			ctl := meta.(*wireCtl)
			if payload != nil {
				// Weight payloads exist to charge the transfer; the tensors
				// themselves arrive by reference in the generation.
				c.Release(payload)
			}
			switch ctl.kind {
			case ctlPrepare:
				ack := make(chan error, 1)
				var err error
				for _, rp := range replicas {
					rp.cmds <- replicaCmd{kind: ctlPrepare, gen: ctl.gen, ack: ack}
					if e := <-ack; e != nil && err == nil {
						err = e
					}
				}
				// Warm-up is real compute: charge one calibrated batch per
				// replica, serialized with everything else on this shard.
				warm := float64(nrep) * f.perTileVirtual * float64(f.cfg.MaxBatch)
				c.Advance(warm)
				for i := range freeAt {
					freeAt[i] = math.Max(freeAt[i], c.Clock())
				}
				c.SendMeta(0, tagResult, &ctlAck{kind: ctlPrepare, shard: s, err: err})
				f.shardClocks[s].Store(math.Float64bits(c.Clock()))
			case ctlRetire:
				ack := make(chan error, 1)
				for _, rp := range replicas {
					rp.cmds <- replicaCmd{kind: ctlRetire, gen: ctl.gen, ack: ack}
					<-ack
				}
				c.SendMeta(0, tagResult, &ctlAck{kind: ctlRetire, shard: s})
			case ctlShutdown:
				for inflight() > 0 {
					complete(<-done)
				}
				flushDead()
				stopReplicas()
				c.SendMeta(0, tagResult, &ctlAck{kind: ctlShutdown, shard: s})
				f.shardClocks[s].Store(math.Float64bits(c.Clock()))
				return
			}
			continue
		}
		// Nothing deliverable: block on the next replica completion or
		// wire arrival.
		select {
		case b := <-done:
			complete(b)
		case <-notify:
		}
	}
}
