package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/allreduce"
	"repro/internal/climate"
	"repro/internal/graph"
	"repro/internal/horovod"
	"repro/internal/loss"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/opt"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Constants the public trainer derives from the options in trainSpec.options.
const (
	trainerSeed   = 1 // exaclim.WithSeed
	modelInitSeed = 2 // exaclim.New: model seed = experiment seed + 1
	trainLR       = 3e-3
)

// buildNet constructs one replica of the workload's network the way the
// exaclim registry does.
func (s trainSpec) buildNet() (*models.Network, error) {
	cfg := models.Config{
		BatchSize: 1, InChannels: climate.NumChannels, NumClasses: climate.NumClasses,
		Height: s.grid, Width: s.grid, Seed: modelInitSeed,
	}
	if s.network == "deeplab" {
		return models.BuildDeepLab(models.TinyDeepLab(cfg))
	}
	return models.BuildTiramisu(models.TinyTiramisu(cfg))
}

func (s trainSpec) dataset(e *env) *climate.Dataset {
	return climate.NewDataset(climate.DefaultGenConfig(s.grid, s.grid, e.seed), s.samples)
}

func classWeights(ds *climate.Dataset) []float32 {
	return loss.ClassWeights(ds.ClassFrequencies(min(ds.Size, 8)), loss.InverseSqrtFrequency)
}

// stepParts is rank 0's wall time inside each layer call of one
// recomposed step.
type stepParts struct {
	traced                            bool
	step                              time.Duration
	dataWait, weightMap, forward      time.Duration
	backward, exchangeWait, optimizer time.Duration
	snapshotCapture, snapshotWrite    time.Duration
	loss                              float64
	poolMisses                        uint64
}

// recomposedRun is what the benchmark's own step loop observed.
type recomposedRun struct {
	steps       []stepParts
	msgs, bytes int64 // mpi.World counters over the whole run
}

// recompose runs the training step as the benchmark's own loop over the
// layers' public calls — Prefetcher.Next → loss.WeightMapInto →
// Executor.Forward → Backward with OnParamGrad feeding
// Session.BeginStep/Push/Wait → tensor.ScaleAllFinite → Adam.Step → the
// loss all-reduce → CaptureParamsInto + WriteSnapshotAtomic — on a world
// the benchmark runs itself, for dur. Rank 0 records one "step" span with a
// child per call, in alternating blocks of traced and untraced steps so the
// same loop yields the tracing overhead.
func (s trainSpec) recompose(e *env, dur time.Duration) (*recomposedRun, error) {
	ds := s.dataset(e)
	weights := classWeights(ds)
	trainIdx := ds.Indices(climate.Train)
	world := mpi.NewWorld(s.fabric())
	run := &recomposedRun{}
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	ckptDir := filepath.Join(e.tmp, "recomposed")
	start := time.Now()

	world.Run(func(c *mpi.Comm) {
		net, err := s.buildNet()
		if err != nil {
			fail(err)
			return
		}
		defer graph.ReleaseOpCaches(net.Graph)
		params := net.Graph.Params()
		index := make(map[*graph.Node]int, len(params))
		sizes := make([]int, len(params))
		for i, p := range params {
			index[p] = i
			sizes[i] = p.Shape.NumElements()
		}
		sess := horovod.NewSession(c, allreduce.Flat{Algorithm: mpi.Ring, Wire: mpi.WireFP32}, horovod.Tree(4))
		defer sess.Close()
		sess.PlanBuckets(sizes)
		adam := opt.NewAdam(trainLR)
		pf := climate.NewPrefetcherAt(ds, trainIdx, trainerSeed, c.Rank(), 2, 0)
		defer pf.Stop()
		pool := tensor.NewPool()
		ex := graph.NewPooledExecutor(net.Graph, graph.FP32, trainerSeed, pool)

		is := net.Images.Shape
		images := tensor.New(is)
		labels := tensor.New(tensor.Shape{is[0], is[2], is[3]})
		wmap := tensor.New(tensor.Shape{is[0], is[2], is[3]})
		feeds := map[*graph.Node]*tensor.Tensor{net.Images: images, net.Labels: labels, net.Weights: wmap}
		grads := make([][]float32, len(params))
		ps := make([]opt.Param, len(params))
		lossBuf := make([]float32, 1)
		ex.OnParamGrad = func(p *graph.Node, g *tensor.Tensor) {
			id := index[p]
			grads[id] = g.Data()
			sess.Push(horovod.TensorID(id), g.Data())
		}
		var state models.TrainState
		rank0 := c.Rank() == 0

		for step := 0; ; step++ {
			var tr *tracer
			traced := rank0 && (step/traceBlock)%2 == 1
			if traced {
				tr = e.tr
			}
			var parts stepParts
			t0 := time.Now()
			sp := tr.begin("step", "core", -1, step)
			timed := func(name, layer string, into *time.Duration, f func()) {
				id := tr.begin(name, layer, sp, step)
				t := time.Now()
				f()
				*into = time.Since(t)
				tr.end(id)
			}

			var sample *climate.Sample
			timed("data_wait", "climate", &parts.dataWait, func() { sample = pf.Next() })
			timed("weightmap", "loss", &parts.weightMap, func() {
				copy(images.Data(), sample.Fields.Data())
				copy(labels.Data(), sample.Labels.Data())
				loss.WeightMapInto(labels, weights, wmap)
			})
			pf.Recycle(sample)

			ex.Reseed(trainerSeed + int64(step)*31 + int64(c.Rank()))
			flag := float32(0)
			if rank0 && time.Since(start) >= dur && step >= s.warmSteps(e)+e.minSamples() {
				flag = 1 // rides in the first bucket; every rank stops after this step
			}
			clear(grads)
			sess.BeginStep(flag, s.compute)
			timed("forward", "graph", &parts.forward, func() { err = ex.Forward(feeds) })
			if err != nil {
				fail(err)
				return
			}
			stepLoss := ex.Value(net.Loss).Data()[0]
			timed("backward", "graph", &parts.backward, func() { err = ex.Backward(net.Loss) })
			if err != nil {
				fail(err)
				return
			}
			for i, g := range grads {
				if g == nil {
					fail(fmt.Errorf("recomposed step %d: no gradient for %s", step, params[i].Label))
					return
				}
			}
			var stop float32
			timed("exchange_wait", "horovod", &parts.exchangeWait, func() { stop = sess.Wait() })

			timed("optimizer", "opt", &parts.optimizer, func() {
				factor := float32(1.0 / float64(c.Size()))
				for i, p := range params {
					tensor.ScaleAllFinite(factor, grads[i])
					ps[i] = opt.Param{Name: p.Label, Value: p.Value, Grad: tensor.FromSlice(p.Shape, grads[i])}
				}
				adam.Step(ps)
			})
			lossBuf[0] = stepLoss
			c.Allreduce(lossBuf, mpi.Ring)

			if rank0 && s.ckptEvery > 0 && (step+1)%s.ckptEvery == 0 {
				timed("snapshot_capture", "models", &parts.snapshotCapture, func() {
					state.Step, state.Ranks, state.Seed, state.GlobalBatch = uint64(step+1), s.ranks, trainerSeed, s.ranks
					state.Cursors = make([]uint64, s.ranks)
					state.Params, err = models.CaptureParamsInto(net.Graph, state.Params)
					state.Opt = adam.CaptureStateInto(state.Opt)
				})
				if err == nil {
					timed("snapshot_write", "models", &parts.snapshotWrite, func() {
						if _, err = models.WriteSnapshotAtomic(ckptDir, &state, false); err == nil {
							err = models.PruneSnapshots(ckptDir, 2)
						}
					})
				}
				if err != nil {
					fail(err)
					return
				}
			}
			tr.end(sp)
			if rank0 {
				parts.traced = traced
				parts.step = time.Since(t0)
				parts.loss = float64(lossBuf[0]) / float64(c.Size())
				parts.poolMisses = pool.Stats().Misses
				run.steps = append(run.steps, parts)
			}
			if stop > 0 {
				return
			}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	run.msgs, run.bytes = world.MessageCount(), world.BytesSent()
	return run, nil
}

// traceBlock is how many consecutive recomposed steps share a tracing
// state.
const traceBlock = 10

// quiet returns the first-decile duration, in ms, of one part over the
// run's steps after the first `skip`.
func (r *recomposedRun) quiet(skip int, part func(stepParts) time.Duration, keep func(stepParts) bool) float64 {
	var ds []time.Duration
	for _, p := range r.steps[min(skip, len(r.steps)):] {
		if keep == nil || keep(p) {
			ds = append(ds, part(p))
		}
	}
	return quietMS(ds)
}

// opReplay runs one real Forward on a probe replica, then times every op
// node's ForwardScratch alone on the inputs that Forward left behind, and
// returns the first-decile time per kernel category, their sum, and the
// first-decile time of the whole Forward and Backward.
type opTimes struct {
	byCategory        map[graph.Category]float64 // ms
	byOp              map[string]float64         // ms, keyed by Op.Name()
	sum               float64
	forward, backward float64
}

func replayOps(g *graph.Graph, root *graph.Node, feeds map[*graph.Node]*tensor.Tensor, backward bool, budget time.Duration) (*opTimes, error) {
	pool := tensor.NewPool()
	ex := graph.NewPooledExecutor(g, graph.FP32, 1, pool)
	defer ex.Release()
	ws := tensor.NewWorkspace(pool)
	var ferr error
	var bwd []time.Duration
	fwd := sampleTimes(budget/2, 2, func() {
		if err := ex.Forward(feeds); err != nil {
			ferr = err
		}
	}, func() {
		if backward && ferr == nil {
			t := time.Now()
			if err := ex.Backward(root); err != nil {
				ferr = err
			}
			bwd = append(bwd, time.Since(t))
		}
	})
	if ferr != nil {
		return nil, ferr
	}
	out := &opTimes{byCategory: map[graph.Category]float64{}, byOp: map[string]float64{}, forward: quietMS(fwd), backward: quietMS(bwd)}
	if err := ex.Forward(feeds); err != nil {
		return nil, err
	}
	var ops []*graph.Node
	for _, n := range g.Nodes() {
		if n.Kind == graph.KindOp && ex.Value(n) != nil {
			ops = append(ops, n)
		}
	}
	if len(ops) == 0 {
		return out, nil
	}
	per := budget / 2 / time.Duration(len(ops))
	for _, n := range ops {
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for i, in := range n.Inputs {
			ins[i] = ex.Value(in)
		}
		run := func() *tensor.Tensor { return n.Op.Forward(ins) }
		if so, ok := n.Op.(graph.ScratchOp); ok {
			run = func() *tensor.Tensor { return so.ForwardScratch(ins, ws) }
		}
		var last *tensor.Tensor
		ts := sampleTimes(per, 2, func() { last = run() }, func() { ws.Release(last) })
		t := quietMS(ts)
		cat, _ := n.Op.Categories()
		out.byCategory[cat] += t
		out.byOp[n.Op.Name()] += t
		out.sum += t
	}
	return out, nil
}

// sampleTimes times f, at least minReps times and until budget is spent,
// calling after (untimed) behind every call.
func sampleTimes(budget time.Duration, minReps int, f, after func()) []time.Duration {
	var out []time.Duration
	start := time.Now()
	for len(out) < minReps || time.Since(start) < budget {
		t := time.Now()
		f()
		out = append(out, time.Since(t))
		if after != nil {
			after()
		}
		if len(out) >= 1<<16 {
			break
		}
	}
	return out
}

// quietOf is the first-decile time in ms of calling f repeatedly for budget.
func quietOf(budget time.Duration, f func()) float64 {
	return quietMS(sampleTimes(budget, 2, f, nil))
}

// trainFeeds builds one step's feeds for a probe replica.
func (s trainSpec) trainFeeds(e *env, net *models.Network) map[*graph.Node]*tensor.Tensor {
	ds := s.dataset(e)
	sample := ds.Sample(ds.Indices(climate.Train)[0])
	is := net.Images.Shape
	images := tensor.New(is)
	copy(images.Data(), sample.Fields.Data())
	labels := tensor.New(tensor.Shape{is[0], is[2], is[3]})
	copy(labels.Data(), sample.Labels.Data())
	return map[*graph.Node]*tensor.Tensor{
		net.Images: images, net.Labels: labels, net.Weights: loss.WeightMap(labels, classWeights(ds)),
	}
}

// collectiveProbe times `body` on every rank of an n-rank world over the
// workload's fabric, reps times, and returns rank 0's first-decile time in
// ms. body must be a collective: every rank calls it the same number of
// times.
func collectiveProbe(fabric simnet.Fabric, reps int, setup func(c *mpi.Comm) (body func(), done func())) float64 {
	var ts []time.Duration
	mpi.NewWorld(fabric).Run(func(c *mpi.Comm) {
		body, done := setup(c)
		if done != nil {
			defer done()
		}
		for i := 0; i < reps; i++ {
			c.Barrier()
			t := time.Now()
			body()
			if c.Rank() == 0 {
				ts = append(ts, time.Since(t))
			}
		}
	})
	return quietMS(ts)
}

// exchangeProbes times the synchronous gradient exchange of the workload's
// full gradient set, one flat all-reduce of a fusion-bucket-sized buffer,
// and a 4 KB mailbox round trip.
func (s trainSpec) exchangeProbes(o *outcome, reps int) error {
	net, err := s.buildNet()
	if err != nil {
		return err
	}
	params := net.Graph.Params()
	sizes := make([]int, len(params))
	order := make([]horovod.TensorID, len(params))
	for i, p := range params {
		sizes[i] = p.Shape.NumElements()
		order[len(params)-1-i] = horovod.TensorID(i) // backward produces gradients last layer first
	}
	reducer := allreduce.Flat{Algorithm: mpi.Ring, Wire: mpi.WireFP32}
	o.set("horovod.exchange_ms", collectiveProbe(s.fabric(), reps, func(c *mpi.Comm) (func(), func()) {
		sess := horovod.NewSession(c, reducer, horovod.Tree(4))
		sess.PlanBuckets(sizes)
		bufs := make([][]float32, len(sizes))
		for i, n := range sizes {
			bufs[i] = make([]float32, n)
		}
		return func() { sess.Exchange(order, bufs, 0) }, sess.Close
	}))
	o.set("allreduce.flat_ms", collectiveProbe(s.fabric(), reps, func(c *mpi.Comm) (func(), func()) {
		buf := make([]float32, horovod.DefaultFusionBufferBytes/4)
		return func() { reducer.Reduce(c, buf) }, nil
	}))
	o.set("mpi.pingpong_us", 1000*pingPong(reps*4))
	return nil
}

// pingPong is the host cost, in ms, of one 4 KB SendPayload/RecvMeta round
// trip between two ranks: two mailbox crossings.
func pingPong(reps int) float64 {
	const tag = 77
	var ts []time.Duration
	mpi.NewWorld(simnet.Loopback(2)).Run(func(c *mpi.Comm) {
		buf := make([]float32, 1024)
		for i := 0; i < reps; i++ {
			if c.Rank() == 0 {
				t := time.Now()
				c.SendPayload(1, tag, buf, nil)
				back, _ := c.RecvMeta(1, tag)
				ts = append(ts, time.Since(t))
				c.Release(back)
			} else {
				got, _ := c.RecvMeta(0, tag)
				c.SendPayload(0, tag, got, nil)
				c.Release(got)
			}
		}
	})
	return quietMS(ts)
}

// snapshotProbes times the snapshot codec on the workload's parameter set
// with Adam moments attached.
func snapshotProbes(o *outcome, net *models.Network, ranks int, dir string, budget time.Duration) error {
	params, err := models.CaptureParamsInto(net.Graph, nil)
	if err != nil {
		return err
	}
	adam := opt.NewAdam(trainLR)
	ps := make([]opt.Param, 0, len(params))
	for _, p := range net.Graph.Params() {
		ps = append(ps, opt.Param{Name: p.Label, Value: p.Value, Grad: tensor.New(p.Shape)})
	}
	adam.Step(ps) // materialise the moment slots
	state := &models.TrainState{
		Step: 1, Ranks: ranks, Seed: trainerSeed, GlobalBatch: ranks,
		Cursors: make([]uint64, ranks), Params: params, Opt: adam.CaptureStateInto(nil),
	}
	var buf bytes.Buffer
	var ferr error
	o.set("models.snapshot_encode_ms", quietOf(budget/3, func() {
		buf.Reset()
		if err := state.EncodeSnapshot(&buf); err != nil {
			ferr = err
		}
	}))
	o.set("models.snapshot_bytes", float64(buf.Len()))
	o.set("models.snapshot_write_ms", quietOf(budget/3, func() {
		if _, err := models.WriteSnapshotAtomic(dir, state, false); err != nil {
			ferr = err
		}
	}))
	o.set("models.snapshot_decode_ms", quietOf(budget/3, func() {
		if _, err := models.DecodeSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			ferr = err
		}
	}))
	return ferr
}

func (s trainSpec) trace(e *env) (*outcome, error) {
	o := newOutcome()
	peak0 := tensorProbes(o, e.dur(0.05))

	// The real trainer, for the rows read off its public stats.
	r, err := s.runTrainer(e, e.dur(0.3), filepath.Join(e.tmp, "ckpt"))
	if err != nil {
		return nil, err
	}
	s.checkTraining(e, o, r)
	n := r.measured()
	if n < e.minSamples() {
		return nil, fmt.Errorf("%w: %d trainer steps", errTooFew, n)
	}
	o.attempted, o.failed = n, r.res.SkippedSteps
	stepMS, ckptMS := r.stepTimesMS(s.ckptEvery)
	trainerQuiet := quantile(stepMS, 0.10)
	o.set("core.step_p50_ms", quantile(stepMS, 0.50))
	o.set("core.step_p95_ms", quantile(stepMS, 0.95))
	o.note("core.step_p95_ms.n", float64(len(stepMS)))
	if len(ckptMS) > 0 {
		o.set("core.snapshot_stall_ms", median(ckptMS)-quantile(stepMS, 0.50))
		o.note("core.snapshot_stall_ms.n", float64(len(ckptMS)))
	}
	last := r.stats[len(r.stats)-1]
	o.set("core.pool_allocs_after_warmup", float64(last.PoolAllocs-r.stats[r.warm-1].PoolAllocs))
	o.costPerOp(r.c0, r.c1, n)
	o.set("bench.mean_ops_per_s", float64(n)/r.at[n].Seconds())
	if mem := r.res.Memory; mem.Requests > 0 {
		o.set("tensor.pool_hit_frac", float64(mem.Reuses)/float64(mem.Requests))
	}
	if steps := float64(len(r.res.History)); s.ranks > 1 {
		cp := r.res.ControlPlane
		o.set("horovod.overlap_frac", r.res.OverlapFraction)
		o.set("horovod.buckets_per_step", float64(cp.Batches)/steps)
		o.set("horovod.wire_kb_per_step", float64(cp.WireBytes)/steps/1024)
		o.set("horovod.ctl_msgs_per_step", float64(cp.CtlSent+cp.CtlReceived)/steps)
		o.set("simnet.comm_virtual_us_per_step", (r.res.Makespan/steps-s.compute)*1e6)
		o.set("simnet.virtual_steps_per_s", steps/r.res.Makespan)
	}

	// The same step as the benchmark's own loop over the layer calls.
	rec, err := s.recompose(e, e.dur(0.35))
	if err != nil {
		return nil, err
	}
	warm := s.warmSteps(e)
	if len(rec.steps) < warm+e.minSamples() {
		return nil, fmt.Errorf("%w: %d recomposed steps", errTooFew, len(rec.steps))
	}
	want, got := r.stats[0].Loss, rec.steps[0].loss
	o.check(math.Abs(want-got) <= 1e-5*math.Max(1, math.Abs(want)),
		"recomposed step 0 loss %.8g differs from the trainer's %.8g: not the same work", got, want)
	all := func(f func(stepParts) time.Duration) float64 { return rec.quiet(warm, f, nil) }
	recomposed := all(func(p stepParts) time.Duration { return p.step })
	o.set("core.recomposed_step_ms", recomposed)
	o.set("core.overhead_frac", (trainerQuiet-recomposed)/trainerQuiet)
	o.set("climate.data_wait_ms", all(func(p stepParts) time.Duration { return p.dataWait }))
	o.set("graph.forward_ms", all(func(p stepParts) time.Duration { return p.forward }))
	o.set("graph.backward_ms", all(func(p stepParts) time.Duration { return p.backward }))
	o.set("opt.step_ms", all(func(p stepParts) time.Duration { return p.optimizer }))
	steps := float64(len(rec.steps))
	tail := rec.steps[warm:]
	o.set("graph.pool_miss_per_step", float64(tail[len(tail)-1].poolMisses-tail[0].poolMisses)/float64(len(tail)-1))
	if s.ranks > 1 {
		o.set("horovod.wait_ms", all(func(p stepParts) time.Duration { return p.exchangeWait }))
		o.set("mpi.msgs_per_step", float64(rec.msgs)/steps)
		o.set("mpi.bytes_per_step", float64(rec.bytes)/steps)
	}
	untraced := rec.quiet(warm, func(p stepParts) time.Duration { return p.step }, func(p stepParts) bool { return !p.traced })
	traced := rec.quiet(warm, func(p stepParts) time.Duration { return p.step }, func(p stepParts) bool { return p.traced })
	if traced > 0 {
		o.set("bench.trace_overhead_frac", 1-untraced/traced)
	}

	// Layers in isolation, on one goroutine.
	net, err := s.buildNet()
	if err != nil {
		return nil, err
	}
	feeds := s.trainFeeds(e, net)
	ops, err := replayOps(net.Graph, net.Loss, feeds, true, e.dur(0.12))
	if err != nil {
		return nil, err
	}
	o.set("nn.fwd_conv_ms", ops.byCategory[graph.CatForwardConv])
	o.set("nn.fwd_pointwise_ms", ops.byCategory[graph.CatForwardPointwise])
	o.set("nn.fwd_copy_ms", ops.byCategory[graph.CatCopyTranspose])
	o.set("graph.exec_overhead_frac", (ops.forward-ops.sum)/ops.forward)
	for _, name := range sortedKeys(ops.byOp) {
		o.note("nn.op."+name+"_ms", ops.byOp[name])
	}
	ds := s.dataset(e)
	sample := ds.Sample(0)
	o.set("climate.generate_ms", quietOf(e.dur(0.03), func() { climate.GenerateInto(ds.Cfg, 1, sample) }))
	w := classWeights(ds)
	o.set("loss.weightmap_ms", quietOf(e.dur(0.01), func() { loss.WeightMap(sample.Labels, w) }))
	if s.ranks > 1 {
		reps := 40
		if e.smoke {
			reps = 3
		}
		if err := s.exchangeProbes(o, reps); err != nil {
			return nil, err
		}
	}
	if s.ckptEvery > 0 {
		if err := snapshotProbes(o, net, s.ranks, filepath.Join(e.tmp, "probe"), e.dur(0.06)); err != nil {
			return nil, err
		}
	}
	hostNoisy(e, o, peak0)
	return o, nil
}
