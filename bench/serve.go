package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"repro/exaclim"
	"repro/internal/climate"
	"repro/internal/tensor"
)

// tileOverlap is the halo every request workload tiles with: 16×16 windows
// step by 12, so a 64×64 field is 25 tiles and a 32×48 frame is 12.
const tileOverlap = 2

var segCfg = exaclim.SegmentConfig{Overlap: tileOverlap}

// traffic is the generated input of a request workload: the fields, the
// hash of the mask each must come back with, and the two load shapes.
type traffic struct {
	fields  []*tensor.Tensor
	refs    []uint64
	tiles   int     // tiles per request
	callers int     // closed loop: callers that each wait for their reply
	rate    float64 // open loop: Poisson arrivals per second

	// Traced pass only.
	tr    *tracer
	layer string // module the request spans belong to
	mu    sync.Mutex
	stats []reqStat
}

// takeStats returns the per-request stats collected since the last call.
func (t *traffic) takeStats() []reqStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.stats
	t.stats = nil
	return out
}

// genFields draws n fields of the given grid from the workload seed.
func genFields(cfg climate.GenConfig, n int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = climate.Generate(cfg, i).Fields
	}
	return out
}

func sparseConfig(grid int, seed int64) climate.GenConfig {
	return climate.GenConfig{Height: grid, Width: grid, Seed: seed, MinTCs: 0, MaxTCs: 1, MinARs: 0, MaxARs: 1}
}

// reference fills in the expected mask hashes: Model.Segment of the same
// field, the serial FP32 full decode every serving path must reproduce.
func (t *traffic) reference(m *exaclim.Model) error {
	t.refs = make([]uint64, len(t.fields))
	for i, f := range t.fields {
		mask, err := m.Segment(f, segCfg)
		if err != nil {
			return err
		}
		t.refs[i] = maskHash(mask)
	}
	return nil
}

// maskHash is FNV-1a over the mask's class values.
func maskHash(mask *tensor.Tensor) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range mask.Data() {
		h ^= uint64(uint8(v))
		h *= 1099511628211
	}
	return h
}

// reqStat is what the system reported about one request in its public
// per-request stat (fields the serving path does not report stay zero).
type reqStat struct {
	tiles, exited      int
	queueWait, compute time.Duration
	meanBatch          float64
}

// segmentFunc is one request through the system under test.
type segmentFunc func(ctx context.Context, field *tensor.Tensor) (*tensor.Tensor, reqStat, error)

// request issues field idx and reports whether the mask came back right.
// In a traced pass (t.tr set) it wraps the call in a request span carrying
// the system's own stat, and keeps the stat for the serve.* rows.
func (t *traffic) request(seg segmentFunc, idx int) bool {
	sp := t.tr.begin("request", t.layer, -1, idx)
	mask, st, err := seg(context.Background(), t.fields[idx])
	t.tr.end(sp)
	if t.tr != nil && err == nil {
		t.tr.attr(sp, "queue_wait_ms", ms(st.queueWait))
		t.tr.attr(sp, "compute_ms", ms(st.compute))
		t.tr.attr(sp, "mean_batch", st.meanBatch)
		t.tr.attr(sp, "exited_tiles", float64(st.exited))
		t.mu.Lock()
		t.stats = append(t.stats, st)
		t.mu.Unlock()
	}
	return err == nil && maskHash(mask) == t.refs[idx]
}

// closed runs the closed-loop phase: t.callers callers for dur.
func (t *traffic) closed(seg segmentFunc, dur time.Duration) (phase, counters, counters) {
	n := len(t.fields)
	before := readCounters()
	p := closedLoop(t.callers, dur, func(c, i int) bool {
		return t.request(seg, (i*t.callers+c)%n)
	})
	return p, before, readCounters()
}

// open runs the open-loop phase: Poisson arrivals at t.rate for dur, the
// gaps drawn from the workload seed.
func (t *traffic) open(seg segmentFunc, dur time.Duration, seed int64) phase {
	due := poissonSchedule(t.rate, dur, rand.New(rand.NewSource(seed)))
	n := len(t.fields)
	return openLoop(due, func(i int) bool { return t.request(seg, i%n) })
}

// Phase shares of a request workload's measuring budget.
const (
	closedShare = 0.4
	openShare   = 0.6
)

// service is a request workload's system under test, set up and warm: a
// server or a fleet, the model behind it, and what set-up left for later.
type service struct {
	model    *exaclim.Model
	seg      segmentFunc
	server   *exaclim.Server         // nil for a fleet
	fleet    *exaclim.Fleet          // nil for a server
	exit     exaclim.ExitCalibration // serve_fields_sparse
	snapshot string                  // fleet_swap: the committed final weights
}

func (s *service) close() {
	if s == nil {
		return
	}
	if s.server != nil {
		s.server.Close()
	}
	if s.fleet != nil {
		s.fleet.Close()
	}
}

// warm sends every field once so lazily-built engines exist before the
// first timed request.
func (s *service) warm(fields []*tensor.Tensor) error {
	for _, f := range fields {
		if _, _, err := s.seg(context.Background(), f); err != nil {
			s.close()
			return err
		}
	}
	return nil
}

// run is the untraced run of a request workload: the set-ups, then the
// open phase (latency) and the closed phase (throughput and costs).
// beforeOpen, if set, runs just before the open phase and returns what to
// check once it is over.
//
// Each phase gets a freshly set-up system of its own (the second set-up is
// one more sample of setup_s): the serving pools grow with every request
// served (see README, "First finding") and both latency and throughput
// degrade as they do, so a phase run on a system another phase has used
// inherits a slowdown that depends on how many requests that phase happened
// to get through.
func (t *traffic) run(e *env, setUp func(rep int) (*service, error), beforeOpen func(*service) func(*outcome)) (*outcome, error) {
	svc, setups, err := repeatSetup(e, setUp, (*service).close)
	if err != nil {
		return nil, err
	}
	defer func() { svc.close() }()
	if err := t.reference(svc.model); err != nil {
		return nil, err
	}
	ready := readCounters()
	var afterOpen func(*outcome)
	if beforeOpen != nil {
		afterOpen = beforeOpen(svc)
	}
	open := t.open(svc.seg, e.dur(openShare), e.seed)
	o := newOutcome()
	if afterOpen != nil {
		afterOpen(o)
	}

	svc.close()
	t0 := time.Now()
	if svc, err = setUp(len(setups)); err != nil {
		return nil, err
	}
	setups = append(setups, time.Since(t0).Seconds())
	closed, before, after := t.closed(svc.seg, e.dur(closedShare))

	o.check(closed.failed == 0 && open.failed == 0,
		"%d closed and %d open requests failed, were refused or differ from the serial FP32 decode", closed.failed, open.failed)
	if need := e.minSamples(); len(closed.done) < need || len(open.lat) < need {
		return nil, fmt.Errorf("%w: %d closed, %d open requests", errTooFew, len(closed.done), len(open.lat))
	}
	o.count(closed)
	o.count(open)
	rate, spread := medianRate(closed.done)
	o.set("setup_s", median(setups))
	o.set("ops_per_s", rate)
	o.note("ops_per_s.iqr", spread)
	o.set("tiles_per_s", rate*float64(t.tiles))
	o.note("tiles_per_s.iqr", spread*float64(t.tiles))
	o.set("p50_ms", median(durationsMS(open.lat)))
	o.note("p50_ms.n", float64(len(open.lat)))
	o.costPerOp(before, after, len(closed.done))
	o.set("mem_ready_mb", ready.liveMB())
	return o, nil
}

func tileServerOptions(extra ...exaclim.ServerOption) []exaclim.ServerOption {
	return append([]exaclim.ServerOption{
		exaclim.WithReplicas(1),
		exaclim.WithMaxBatch(8),
		exaclim.WithQueueDepth(256),
		exaclim.WithBatchDeadline(200 * time.Microsecond),
		exaclim.WithServeSegmentConfig(segCfg),
	}, extra...)
}

// serve builds a 1-replica server over m and warms it on the traffic.
func (t *traffic) serve(m *exaclim.Model, extra ...exaclim.ServerOption) (*service, error) {
	s, err := exaclim.NewServer(m, tileServerOptions(extra...)...)
	if err != nil {
		return nil, err
	}
	svc := &service{model: m, server: s, seg: func(ctx context.Context, f *tensor.Tensor) (*tensor.Tensor, reqStat, error) {
		mask, st, err := s.Segment(ctx, f)
		return mask, reqStat{tiles: st.Tiles, exited: st.ExitedTiles, queueWait: st.QueueWait, compute: st.Compute, meanBatch: st.MeanBatch}, err
	}}
	return svc, svc.warm(t.fields)
}

// --- serve_tiles ----------------------------------------------------------

var serveTiles = workload{
	name:  "serve_tiles",
	why:   "one 16x16 tile per request: admission, tile copy, stat and batch forming are largest relative to compute; full batches closed, deadline-bound singles open",
	run:   func(e *env) (*outcome, error) { t := serveTilesTraffic(e); return t.run(e, t.setUpServeTiles, nil) },
	trace: traceServeTiles,
}

func serveTilesTraffic(e *env) *traffic {
	return &traffic{
		fields:  genFields(climate.DefaultGenConfig(16, 16, e.seed), 8),
		tiles:   1,
		callers: 8,
		rate:    e.openRate(100),
	}
}

// setUpServeTiles builds serve_tiles' network — Tiramisu-Tiny at 16×16,
// untrained, constant init seed 3 — and its server.
func (t *traffic) setUpServeTiles(int) (*service, error) {
	m, err := exaclim.BuildModel("tiramisu", exaclim.Tiny, exaclim.ModelConfig{Height: 16, Width: 16, Seed: 3})
	if err != nil {
		return nil, err
	}
	return t.serve(m)
}

// --- serve_fields_sparse --------------------------------------------------

var serveFieldsSparse = workload{
	name: "serve_fields_sparse",
	why:  "25-tile sparse fields through a calibrated early exit: the decoder does little, infer.ExitScores and stitch do most, scheduler cost is amortised 25x",
	run: func(e *env) (*outcome, error) {
		t := sparseTraffic(e)
		return t.run(e, func(int) (*service, error) { return t.setUpServeSparse(e) }, func(s *service) func(*outcome) {
			return func(o *outcome) { o.check(s.server.Stats().ExitRate > 0, "no tile took the early exit") }
		})
	},
	trace: traceServeSparse,
}

func sparseTraffic(e *env) *traffic {
	n, grid, tiles := e.fieldSet()
	return &traffic{
		fields:  genFields(sparseConfig(grid, e.seed), n),
		tiles:   tiles,
		callers: 4,
		rate:    e.openRate(18),
	}
}

// Training lengths of the request workloads' set-up. The 60-step model
// predicts storm pixels in 8 % of the sparse fields' tiles, so the calibrated
// exit resolves the other 92 %; on 32×48 frames it predicts none at all, so
// stream_watch trains to 240 steps, where the tracker has detections to link.
const (
	serveTrainSteps  = 60
	streamTrainSteps = 240
)

// trainedTileModel trains the 16×16 Quickstart model the sparse, fleet and
// stream workloads serve. All its seeds are constants. With ckptDir set it
// also commits a snapshot of the final weights.
func trainedTileModel(e *env, steps int, ckptDir string) (*exaclim.Result, error) {
	if e.smoke {
		steps = 3
	}
	opts := append(exaclim.Quickstart(),
		exaclim.WithSyntheticData(16, 16, 32, 42),
		exaclim.WithSeed(2),
		exaclim.WithSteps(steps))
	if ckptDir != "" {
		opts = append(opts, exaclim.WithCheckpointEvery(steps), exaclim.WithCheckpointDir(ckptDir))
	}
	exp, err := exaclim.New(opts...)
	if err != nil {
		return nil, err
	}
	return exp.Run(context.Background())
}

// setUpServeSparse trains, calibrates the exit on the traffic's own fields,
// and builds the server.
func (t *traffic) setUpServeSparse(e *env) (*service, error) {
	res, err := trainedTileModel(e, serveTrainSteps, "")
	if err != nil {
		return nil, err
	}
	cal, err := res.Model.CalibrateExit(t.fields, segCfg, 1)
	if err != nil {
		return nil, err
	}
	svc, err := t.serve(res.Model, exaclim.WithCalibratedExit(cal))
	if err != nil {
		return nil, err
	}
	svc.exit = cal
	return svc, nil
}

// --- fleet_swap -----------------------------------------------------------

var fleetSwap = workload{
	name: "fleet_swap",
	why:  "the only path through fleet (router, shard scheduler, mpi mailboxes, simnet clocks) and the snapshot reader; two live weight swaps under open load",
	run: func(e *env) (*outcome, error) {
		t := fleetTraffic(e)
		return t.run(e, func(rep int) (*service, error) {
			return t.setUpFleet(e, 2, filepath.Join(e.tmp, fmt.Sprintf("ckpt%d", rep)))
		}, func(s *service) func(*outcome) {
			wait := swapsDuring(s.fleet, s.snapshot, e.dur(openShare))
			return func(o *outcome) { _, err := wait(); checkSwaps(o, s.fleet, err) }
		})
	},
	trace: traceFleetSwap,
}

func fleetTraffic(e *env) *traffic {
	n, grid, tiles := e.fieldSet()
	return &traffic{
		fields:  genFields(climate.DefaultGenConfig(grid, grid, e.seed), n),
		tiles:   tiles,
		callers: 4,
		rate:    e.openRate(13),
	}
}

// setUpFleet trains (committing a snapshot of the final weights) and builds
// a fleet of `shards` shards.
func (t *traffic) setUpFleet(e *env, shards int, ckptDir string) (*service, error) {
	res, err := trainedTileModel(e, serveTrainSteps, ckptDir)
	if err != nil {
		return nil, err
	}
	f, err := exaclim.NewFleet(res.Model,
		exaclim.WithShards(shards),
		exaclim.WithShardReplicas(1),
		exaclim.WithFleetMaxBatch(8),
		exaclim.WithFleetSegmentConfig(segCfg))
	if err != nil {
		return nil, err
	}
	svc := &service{model: res.Model, fleet: f, snapshot: res.LastCheckpoint,
		seg: func(ctx context.Context, fld *tensor.Tensor) (*tensor.Tensor, reqStat, error) {
			mask, st, err := f.Segment(ctx, fld)
			return mask, reqStat{tiles: st.Tiles, exited: st.ExitedTiles}, err
		}}
	return svc, svc.warm(t.fields)
}

// swapsDuring fires SwapCheckpoint at one third and two thirds of an open
// phase of length dur and returns the wall time of each swap once done.
func swapsDuring(f *exaclim.Fleet, snapshot string, dur time.Duration) func() ([]time.Duration, error) {
	type result struct {
		took []time.Duration
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		var r result
		start := time.Now()
		for _, at := range []time.Duration{dur / 3, 2 * dur / 3} {
			time.Sleep(at - time.Since(start))
			t0 := time.Now()
			if err := f.SwapCheckpoint(snapshot); err != nil && r.err == nil {
				r.err = err
			}
			r.took = append(r.took, time.Since(t0))
		}
		ch <- r
	}()
	return func() ([]time.Duration, error) { r := <-ch; return r.took, r.err }
}

// checkSwaps applies fleet_swap's checks beyond the masks.
func checkSwaps(o *outcome, f *exaclim.Fleet, swapErr error) {
	st := f.Stats()
	o.check(swapErr == nil, "swap failed: %v", swapErr)
	o.check(st.Swaps == 2 && st.Version == 2, "%d swaps completed at weight version %d, want 2 and 2", st.Swaps, st.Version)
	o.check(st.Failed == 0, "fleet reports %d failed requests", st.Failed)
}
