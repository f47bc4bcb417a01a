package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/exaclim"
	"repro/internal/climate"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/storms"
	"repro/internal/tensor"
)

// Shares of a request workload's traced budget. The traced pass drives the
// same two phases as the untraced run, shorter, with every request in a
// span, then times the layers underneath in isolation.
const (
	tracedClosedShare = 0.28
	tracedOpenShare   = 0.28
	inferProbeShare   = 0.18
	extraShare        = 0.06 // each workload-specific extra phase
)

var inferCfg = infer.Config{TileH: 16, TileW: 16, Overlap: tileOverlap, MaxBatch: 8}

// tracedPhases runs the open phase traced, then the closed phase as
// untraced and traced quarters (so the pass measures its own
// overhead), and fills the rows every request workload shares. beforeOpen,
// if set, runs just before the open phase. It returns the median closed-loop
// request rate and the stats of the two phases.
func (t *traffic) tracedPhases(e *env, o *outcome, seg segmentFunc, beforeOpen func()) (rate float64, closedStats, openStats []reqStat, err error) {
	tr := e.tr
	t.tr = tr
	if beforeOpen != nil {
		beforeOpen()
	}
	open := t.open(seg, e.dur(tracedOpenShare), e.seed)
	openStats = t.takeStats()
	o.count(open)
	o.check(open.failed == 0, "%d open requests failed or returned a wrong mask", open.failed)
	// The traced open phase is half as long as the untraced one; its
	// percentiles are reported with their sample count, not gated.
	if len(open.lat) < e.minSamples()/3 {
		return 0, nil, nil, fmt.Errorf("%w: %d open requests", errTooFew, len(open.lat))
	}
	o.setLatency("bench.lat_p50_ms", "bench.lat_p95_ms", durationsMS(open.lat))
	o.set("bench.gen_late_p95_ms", quantile(durationsMS(open.late), 0.95))

	quarter := e.dur(tracedClosedShare / 4)
	var done []time.Duration
	var offset time.Duration
	var rates [2][]float64 // window rates: untraced, traced
	var first, last counters
	ops := 0
	for q := 0; q < 4; q++ {
		// Untraced, traced, traced, untraced: a slowdown that grows over
		// the phase weighs on both kinds alike.
		traced := q == 1 || q == 2
		t.tr = nil
		if traced {
			t.tr = tr
		}
		p, before, after := t.closed(seg, quarter)
		if q == 0 {
			first = before
		}
		last = after
		o.count(p)
		ops += len(p.done)
		for _, d := range p.done {
			done = append(done, offset+d)
		}
		offset += p.elapsed
		kind := 0
		if traced {
			kind = 1
		}
		rates[kind] = append(rates[kind], float64(len(p.done))/p.elapsed.Seconds())
		o.check(p.failed == 0, "%d closed requests failed or returned a wrong mask", p.failed)
	}
	closedStats = t.takeStats()
	if ops < e.minSamples() {
		return 0, nil, nil, fmt.Errorf("%w: %d closed requests", errTooFew, ops)
	}
	rate, _ = medianRate(done)
	o.costPerOp(first, last, ops)
	o.set("bench.mean_ops_per_s", float64(ops)/offset.Seconds())
	if u, tq := mean(rates[0]), mean(rates[1]); u > 0 {
		o.set("bench.trace_overhead_frac", 1-tq/u)
	}
	t.tr = nil
	return rate, closedStats, openStats, nil
}

// serveRows fills the serve.* rows that come from the public per-request
// stat and the server's counters.
func serveRows(o *outcome, closed, open []reqStat, st exaclim.ServerStats) {
	var wait, compute []time.Duration
	for _, s := range closed {
		wait = append(wait, s.queueWait)
		compute = append(compute, s.compute)
	}
	o.set("serve.queue_wait_p50_ms", quantile(durationsMS(wait), 0.50))
	o.set("serve.queue_wait_p95_ms", quantile(durationsMS(wait), 0.95))
	o.set("serve.compute_p50_ms", quantile(durationsMS(compute), 0.50))
	o.set("serve.mean_batch", meanBatch(closed))
	o.set("serve.mean_batch_open", meanBatch(open))
	o.set("serve.queue_depth_peak", float64(st.QueueDepthPeak))
	o.set("serve.exit_rate", st.ExitRate)
	o.set("serve.latency_p99_ms", ms(st.LatencyP99))
}

// meanBatch averages the executor batch size over the requests that had a
// tile decoded (an all-exited request rode in no batch).
func meanBatch(stats []reqStat) float64 {
	var sum float64
	n := 0
	for _, s := range stats {
		if s.meanBatch > 0 {
			sum += s.meanBatch
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// inferProbes times the engine under the schedulers — plan, batch runs at 1
// and 8, the exit scorer, the bare inference-clone forward and its ops one
// by one, and Runner.Segment in a loop — on an untrained replica of the
// 16×16 architecture (these times depend on shapes, not weights). head is
// the calibrated exit head when the workload has one.
func inferProbes(e *env, o *outcome, fields []*tensor.Tensor, head *infer.ExitHead) error {
	net, err := tileNet()
	if err != nil {
		return err
	}
	src := infer.FromModel(net)
	runner, err := infer.NewRunner(src, inferCfg)
	if err != nil {
		return err
	}
	defer runner.Close()
	budget := e.dur(inferProbeShare)
	slot := budget / 8

	fs := fields[0].Shape()
	o.set("infer.plan_us", 1000*quietOf(slot/4, func() {
		if _, perr := infer.Plan(fs[1], fs[2], inferCfg); perr != nil {
			err = perr
		}
	}))
	// Eight tiles: the tiles of the first fields, in order.
	var items []infer.BatchItem
	for _, f := range fields {
		tiles, perr := infer.Plan(f.Shape()[1], f.Shape()[2], inferCfg)
		if perr != nil {
			return perr
		}
		mask := tensor.New(tensor.Shape{f.Shape()[1], f.Shape()[2]})
		for _, tl := range tiles {
			if len(items) < 8 {
				items = append(items, infer.BatchItem{Fields: f, Tile: tl, Mask: mask})
			}
		}
	}
	if len(items) < 8 {
		return fmt.Errorf("traffic yields only %d tiles", len(items))
	}
	run := func(n int) float64 {
		return quietOf(slot, func() {
			if rerr := runner.RunBatch(items[:n]); rerr != nil {
				err = rerr
			}
		})
	}
	b1, b8 := run(1), run(8)
	o.set("infer.runbatch_b1_ms", b1)
	o.set("infer.runbatch_b8_ms", b8)
	o.set("infer.batch_gain", 8*b1/b8)
	if runner.HasExit() {
		scores := make([]float64, 8)
		exit := quietOf(slot, func() {
			if rerr := runner.ExitScores(items, scores, head); rerr != nil {
				err = rerr
			}
		})
		o.set("infer.exit_scores_b8_ms", exit)
		o.set("infer.exit_cost_ratio", exit/b8)
	}

	// The inference clone alone: no crop, no stitch.
	forward := func(batch int, replay time.Duration) (*opTimes, error) {
		g, m, cerr := graph.CloneForInference(net.Graph, net.Logits, batch, nn.InferenceFusions)
		if cerr != nil {
			return nil, cerr
		}
		window := tensor.New(tensor.NCHW(batch, climate.NumChannels, 16, 16))
		for b := 0; b < batch; b++ {
			copy(window.Data()[b*climate.NumChannels*256:], fields[b%len(fields)].Data()[:climate.NumChannels*256])
		}
		return replayOps(g, m[net.Logits], map[*graph.Node]*tensor.Tensor{m[net.Images]: window}, false, replay)
	}
	f1, ferr := forward(1, slot)
	if ferr != nil {
		return ferr
	}
	f8, ferr := forward(8, 2*slot)
	if ferr != nil {
		return ferr
	}
	o.set("graph.infer_forward_b1_ms", f1.forward)
	o.set("graph.infer_forward_b8_ms", f8.forward)
	o.set("infer.pack_stitch_frac", 1-f8.forward/b8)
	for _, name := range sortedKeys(f8.byOp) {
		t := f8.byOp[name]
		o.note("nn.infer_op."+name+"_ms", t)
		switch {
		case strings.HasPrefix(name, "batchnorm"):
			o.values["nn.infer_norm_ms"] += t
		case strings.Contains(name, "conv"):
			o.values["nn.infer_conv_ms"] += t
		default:
			o.values["nn.infer_other_ms"] += t
		}
	}

	// The engine with no scheduler in front of it.
	tiles, err := infer.Plan(fs[1], fs[2], inferCfg)
	if err != nil {
		return err
	}
	i := 0
	seg := quietOf(slot, func() {
		if _, serr := runner.Segment(fields[i%len(fields)]); serr != nil {
			err = serr
		}
		i++
	})
	o.set("infer.segment_tiles_per_s", float64(len(tiles))/(seg/1000))
	if ps := runner.PoolStats(); ps.Gets > 0 {
		o.set("infer.pool_hit_frac", float64(ps.Reuses())/float64(ps.Gets))
	}
	return err
}

// --- serve_tiles ----------------------------------------------------------

// maxOKRate walks a ladder of open-loop rates and returns the highest whose
// 95th-percentile latency stays within limit with no request refused.
func (t *traffic) maxOKRate(e *env, seg segmentFunc, rates []float64, limit time.Duration) float64 {
	best := 0.0
	saved := t.rate
	defer func() { t.rate = saved }()
	for i, r := range rates {
		t.rate = r
		p := t.open(seg, e.dur(0.05), e.seed+int64(i)+1)
		if len(p.lat) == 0 || p.failed > 0 || quantile(durationsMS(p.lat), 0.95) > ms(limit) {
			break
		}
		best = r
	}
	return best
}

// traceServer is the traced pass of the two server workloads.
func (t *traffic) traceServer(e *env, setUp func() (*service, error), ladder bool) (*outcome, error) {
	o := newOutcome()
	peak0 := tensorProbes(o, e.dur(0.05))
	t.layer = "serve"
	svc, err := setUp()
	if err != nil {
		return nil, err
	}
	defer svc.close()
	if err := t.reference(svc.model); err != nil {
		return nil, err
	}
	rate, closed, open, err := t.tracedPhases(e, o, svc.seg, nil)
	if err != nil {
		return nil, err
	}
	serveRows(o, closed, open, svc.server.Stats())
	var head *infer.ExitHead
	if len(svc.exit.Head.Weights) > 0 {
		head = &svc.exit.Head
		o.check(svc.server.Stats().ExitRate > 0, "no tile took the early exit")
	}
	if ladder {
		// On a server of its own, like every phase (see traffic.run).
		fresh, err := setUp()
		if err != nil {
			return nil, err
		}
		defer fresh.close()
		o.set("serve.max_ok_rps", t.maxOKRate(e, fresh.seg, []float64{150, 300, 450, 600}, 10*time.Millisecond))
	}
	if err := inferProbes(e, o, t.fields, head); err != nil {
		return nil, err
	}
	// The closed-loop tile rate over what the bare engine does at full
	// batches.
	if b8 := o.values["infer.runbatch_b8_ms"]; b8 > 0 {
		o.set("serve.efficiency", rate*float64(t.tiles)/(8000/b8))
	}
	hostNoisy(e, o, peak0)
	return o, nil
}

func traceServeTiles(e *env) (*outcome, error) {
	t := serveTilesTraffic(e)
	return t.traceServer(e, func() (*service, error) { return t.setUpServeTiles(0) }, true)
}

func traceServeSparse(e *env) (*outcome, error) {
	t := sparseTraffic(e)
	return t.traceServer(e, func() (*service, error) { return t.setUpServeSparse(e) }, false)
}

// --- fleet_swap -----------------------------------------------------------

// denseRate is the median closed-loop tile rate of a service on the traffic.
func (t *traffic) denseRate(e *env, svc *service, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	defer svc.close()
	p, _, _ := t.closed(svc.seg, e.dur(extraShare))
	if p.failed > 0 {
		return 0, fmt.Errorf("%d requests failed", p.failed)
	}
	if len(p.done) < e.minSamples()/3+2 {
		return 0, fmt.Errorf("%w: %d requests", errTooFew, len(p.done))
	}
	r, _ := medianRate(p.done)
	return r * float64(t.tiles), nil
}

func traceFleetSwap(e *env) (*outcome, error) {
	o := newOutcome()
	peak0 := tensorProbes(o, e.dur(0.05))
	t := fleetTraffic(e)
	t.layer = "fleet"
	svc, err := t.setUpFleet(e, 2, filepath.Join(e.tmp, "ckpt"))
	if err != nil {
		return nil, err
	}
	defer svc.close()
	if err := t.reference(svc.model); err != nil {
		return nil, err
	}
	// The swaps fire during the traced open phase, as in the untraced run.
	var wait func() ([]time.Duration, error)
	if _, _, _, err = t.tracedPhases(e, o, svc.seg, func() {
		wait = swapsDuring(svc.fleet, svc.snapshot, e.dur(tracedOpenShare))
	}); err != nil {
		return nil, err
	}
	took, swapErr := wait()
	checkSwaps(o, svc.fleet, swapErr)
	st := svc.fleet.Stats()
	o.set("fleet.swap_ms", median(durationsMS(took)))
	o.set("fleet.swap_window_p99_ms", ms(st.SwapWindowP99))
	o.set("fleet.redispatched", float64(st.Redispatched))

	// One shard against one server replica on identical dense traffic: what
	// crossing the router and a mailbox costs per tile.
	one, err := t.setUpFleet(e, 1, filepath.Join(e.tmp, "ckpt1"))
	fleetTiles, err := t.denseRate(e, one, err)
	if err != nil {
		return nil, fmt.Errorf("1-shard fleet: %w", err)
	}
	srv, err := t.serve(svc.model)
	serverTiles, err := t.denseRate(e, srv, err)
	if err != nil {
		return nil, fmt.Errorf("1-replica server: %w", err)
	}
	o.set("fleet.per_tile_overhead_us", 1e6/fleetTiles-1e6/serverTiles)

	v, err := virtualFleetRate(t.fields)
	if err != nil {
		return nil, err
	}
	o.set("fleet.virtual_req_per_s", v)
	net, err := tileNet()
	if err != nil {
		return nil, err
	}
	if err := snapshotProbes(o, net, 1, filepath.Join(e.tmp, "probe"), e.dur(extraShare)); err != nil {
		return nil, err
	}
	reps := 200
	if e.smoke {
		reps = 5
	}
	o.set("mpi.pingpong_us", 1000*pingPong(reps))
	if err := inferProbes(e, o, t.fields, nil); err != nil {
		return nil, err
	}
	hostNoisy(e, o, peak0)
	return o, nil
}

// virtualFleetRate is the fleet's throughput on its virtual clocks with the
// per-tile compute charge pinned to 1 ms, so that only the fabric model and
// the router's dispatch order decide it: a count-like figure that repeats.
func virtualFleetRate(fields []*tensor.Tensor) (float64, error) {
	net, err := tileNet()
	if err != nil {
		return 0, err
	}
	f, err := fleet.New(infer.FromModel(net), fleet.Config{
		Shards: 2, ShardReplicas: 1, MaxBatch: 8, Tile: inferCfg,
		TileCost: time.Millisecond, ExitCost: time.Millisecond,
	})
	if err != nil {
		return 0, err
	}
	defer f.Close()
	for i := 0; i < 16; i++ {
		if _, _, err := f.Segment(context.Background(), fields[i%len(fields)]); err != nil {
			return 0, err
		}
	}
	return f.Stats().VirtualReqPerSec, nil
}

// --- stream_watch ---------------------------------------------------------

func traceStreamWatch(e *env) (*outcome, error) {
	o := newOutcome()
	peak0 := tensorProbes(o, e.dur(0.05))
	s, err := setUpStream(e)
	if err != nil {
		return nil, err
	}
	defer s.close()

	// Paced first, as in the untraced run.
	paced, err := s.paced.run(e.dur(tracedOpenShare))
	if err != nil {
		return nil, err
	}
	checkStream(o, "paced", paced.Stats, true)
	lat := durationsMS(s.paced.clock.latencies())
	if len(lat) < e.minSamples() {
		return nil, fmt.Errorf("%w: %d paced frames", errTooFew, len(lat))
	}

	// The pipeline owns its frame loop, so a frame's span is laid down
	// afterwards from the instants the clocked source and the server's
	// observer noted: asked for → mask ready.
	before := readCounters()
	sat, err := s.saturate.run(e.dur(tracedClosedShare))
	if err != nil {
		return nil, err
	}
	after := readCounters()
	checkStream(o, "saturate", sat.Stats, false)
	frames := s.saturate.clock.done
	if len(frames) < e.minSamples() {
		return nil, fmt.Errorf("%w: %d saturated frames", errTooFew, len(frames))
	}
	for i, d := range frames {
		if a := s.saturate.clock.asked; i < len(a) {
			e.tr.add("frame", "stream", i, s.saturate.clock.t0.Add(a[i]), s.saturate.clock.t0.Add(d))
		}
	}
	rate, _ := medianRate(frames)
	o.costPerOp(before, after, len(frames))
	o.set("bench.mean_ops_per_s", float64(len(frames))/sat.Stats.Elapsed.Seconds())
	o.attempted = len(s.saturate.clock.asked) + len(s.paced.clock.asked)
	o.failed = int(sat.Stats.Dropped + paced.Stats.Dropped)
	o.setLatency("bench.lat_p50_ms", "bench.lat_p95_ms", lat)
	o.set("stream.dropped_frac", float64(paced.Stats.Dropped)/float64(max(paced.Stats.Produced, 1)))
	_, peak := s.paced.watcher.QueueDepth()
	o.set("stream.queue_depth_peak", float64(peak))
	st := s.saturate.watcher.ServerStats()
	o.set("serve.mean_batch", st.MeanBatch)
	o.set("serve.mean_batch_open", s.paced.watcher.ServerStats().MeanBatch)
	o.set("serve.queue_depth_peak", float64(st.QueueDepthPeak))
	o.set("serve.exit_rate", st.ExitRate)
	o.set("serve.latency_p99_ms", ms(st.LatencyP99))

	// The same frames through Server.Segment back to back: the pipeline's
	// ceiling if queueing, extraction and tracking were free.
	const nFrames = 32
	samples := make([]*climate.Sample, nFrames)
	for i := range samples {
		if samples[i], err = s.seq.Frame(i); err != nil {
			return nil, err
		}
	}
	srv, err := exaclim.NewServer(s.model, tileServerOptions()...)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	for _, smp := range samples[:4] { // build the engines before timing
		if _, _, err := srv.Segment(context.Background(), smp.Fields); err != nil {
			return nil, err
		}
	}
	i := 0
	perFrame := quietOf(e.dur(extraShare), func() {
		if _, _, serr := srv.Segment(context.Background(), samples[i%nFrames].Fields); serr != nil {
			err = serr
		}
		i++
	})
	if err != nil {
		return nil, err
	}
	o.set("stream.efficiency", rate/(1000/perFrame))

	i = 0
	o.set("climate.sequence_frame_ms", quietOf(e.dur(extraShare/2), func() {
		if _, ferr := s.seq.Frame(i % sequenceFrames); ferr != nil {
			err = ferr
		}
		i++
	}))
	i = 0
	detections := make([][]*storms.Storm, nFrames)
	o.set("storms.extract_ms", quietOf(e.dur(extraShare/2), func() {
		tcs, ars := storms.ExtractAll(samples[i%nFrames], 4)
		detections[i%nFrames] = append(tcs, ars...)
		i++
	}))
	tracker := storms.NewTracker(frameW, float64(frameH)/5)
	frame := 0
	o.set("storms.tracker_advance_us", 1000*quietOf(e.dur(extraShare/2), func() {
		tracker.Advance(frame, detections[frame%nFrames])
		frame++
	}))
	if err != nil {
		return nil, err
	}
	fields := make([]*tensor.Tensor, 8)
	for i := range fields {
		fields[i] = samples[i].Fields
	}
	if err := inferProbes(e, o, fields, nil); err != nil {
		return nil, err
	}
	hostNoisy(e, o, peak0)
	return o, nil
}
