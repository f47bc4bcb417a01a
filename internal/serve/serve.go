// Package serve is the batched tiled-inference serving stack: a request
// scheduler with a bounded admission queue, cross-request micro-batching,
// and N replica workers, turning the single-goroutine tiled Segment call
// into the service the paper's science use case needs — storm-mask
// segmentation of arbitrary CAM5 output under concurrent load.
//
// Architecture: an admitted Segment request is decomposed into its tile
// jobs, which enter one bounded queue (admission blocks when it is full —
// backpressure — and respects the request context). Each replica worker
// owns an isolated infer.Runner (its own inference graph clones, pooled
// executors, and tensor pool, so replicas never contend) and drains the
// queue in batches: the first job is taken blocking, then the batch is
// topped up to MaxBatch from whatever is queued — tiles from different
// requests coalesce into one executor run — waiting up to BatchDeadline
// for stragglers when the queue runs dry. Tile kernels are batch-invariant
// bit for bit (see infer), so scheduling decisions never change masks.
//
// Cancellation is per request: cancelling the context fails the request
// immediately and its queued tiles are skipped (not computed) as workers
// reach them. Close drains gracefully: admitted requests finish, new ones
// are refused.
//
// # Adaptive early exit
//
// With Config.EarlyExit, tiles are scheduled in two micro-batch classes.
// Admitted tiles first ride cheap exit-check batches: the replica evaluates
// only the network's encoder prefix (infer.Runner.ExitScores) and tiles
// whose activity score clears the calibrated threshold finish immediately
// with an all-background keep region. The rest are demoted to the decode
// queue and ride full-decode batches as before. Workers always prefer
// exit-check batches, so one slow full-decode batch never stalls the cheap
// path; when the decode backlog is full, the demoting worker clears a
// decode batch itself, which keeps the two-queue system deadlock-free
// without unbounded buffering.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// ErrClosed is returned by Segment after Close.
var ErrClosed = errors.New("serve: server closed")

// Config sizes the server.
type Config struct {
	// Replicas is the number of worker goroutines, each with an isolated
	// inference engine (default 1).
	Replicas int
	// MaxBatch is the tile batch cap per executor run (default 1).
	MaxBatch int
	// QueueDepth bounds the admission queue in tiles (default 64);
	// admission blocks — backpressure — while it is full.
	QueueDepth int
	// BatchDeadline is how long a worker holding a partial batch waits for
	// more tiles before running it (default 0: run with whatever is
	// queued). Non-zero deadlines trade latency for batch occupancy under
	// bursty load.
	BatchDeadline time.Duration
	// Tile is the tiling geometry and precision (MaxBatch above wins over
	// Tile.MaxBatch).
	Tile infer.Config
	// EarlyExit enables the adaptive background-tile path: tiles are
	// exit-checked on the network's encoder prefix before being decoded,
	// and those scoring below ExitThreshold skip the decoder entirely.
	// Requires the network to carry an exit tap (infer.Network.Exit).
	EarlyExit bool
	// ExitThreshold is the exit decision boundary (a tile exits iff its
	// exit score is strictly below it), normally taken from an offline
	// infer.Calibrate run. The zero value never exits raw energy scores —
	// EarlyExit with an uncalibrated threshold is safe, just useless.
	ExitThreshold float64
	// ExitHead is the linear confidence head tiles are scored with,
	// normally the Head of the same infer.Calibrate run that produced
	// ExitThreshold (threshold and head only make sense as a pair). Nil
	// scores tiles by raw tap energy (mean absolute activation).
	ExitHead *infer.ExitHead
	// OnStat, when non-nil, streams every finished request's RequestStat
	// (including failed and cancelled ones) from the completing worker's
	// goroutine; it must be safe for concurrent use and return quickly.
	OnStat func(RequestStat)
}

func (c Config) withDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	return c
}

// RequestStat is the per-request serving record streamed to OnStat and
// returned by Segment.
type RequestStat struct {
	Tiles     int     // tile jobs the request decomposed into
	MeanBatch float64 // mean executor batch size its tiles rode in
	// QueueWait (admission → first tile execution) and Compute (executor
	// time attributed to this request's tiles: each batch's duration is
	// split evenly across the tiles riding it) decompose Latency, so
	// saturation (queue growth) and slow kernels are distinguishable per
	// request, not just in aggregate.
	QueueWait   time.Duration
	Compute     time.Duration
	Latency     time.Duration // admission → completion
	ExitedTiles int           // tiles resolved by the early-exit path
	Cancelled   bool          // failed by its own context
	Failed      bool          // failed for any reason (includes Cancelled)
}

// Stats is a snapshot of server-level counters.
type Stats struct {
	Requests  uint64 // completed requests (including failed)
	Failed    uint64 // failed (cancelled or errored) requests
	Tiles     uint64 // tiles fully decoded
	Batches   uint64 // full-decode executor runs
	MeanBatch float64
	// Latency quantiles over successful requests.
	LatencyP50, LatencyP95, LatencyP99 time.Duration
	RequestsPerSec                     float64 // successful requests / uptime
	TilesPerSec                        float64 // decoded tiles / uptime
	QueueDepth                         int     // tiles queued right now (both classes)
	QueueDepthPeak                     int
	// Early-exit path counters: tiles scored by the exit branch, tiles it
	// resolved without a decode, and the resolved fraction of all
	// completed tiles (exited / (exited + decoded)).
	ExitChecks  uint64
	ExitedTiles uint64
	ExitRate    float64
	// Per-path compute-latency quantiles over micro-batches: exit checks
	// and full decodes are separate batch classes, so their costs are
	// reported separately.
	ExitCheckP50, ExitCheckP99 time.Duration
	DecodeP50, DecodeP99       time.Duration
	Uptime                     time.Duration
}

// request is the shared state of one Segment call.
type request struct {
	ctx       context.Context
	fields    *tensor.Tensor
	mask      *tensor.Tensor
	tiles     int
	exitThr   float64      // effective exit threshold (config × boost)
	pending   atomic.Int64 // tiles not yet finished (executed or skipped)
	started   atomic.Int64 // unix nanos of first tile execution (0 = none)
	batchSum  atomic.Int64 // Σ batch sizes over decoded tiles
	executed  atomic.Int64
	exited    atomic.Int64 // tiles resolved by the exit path
	computeNs atomic.Int64 // executor time attributed to this request
	enqueued  time.Time
	jobs      []tileJob // the request's queue entries, one slab
	done      chan struct{}
	failOnce  sync.Once
	err       atomic.Pointer[error] // first failure, nil on success
	statOut   RequestStat           // written by finish before done closes
}

// fail records the request's first error; tiles still queued will be
// skipped when a worker reaches them.
func (r *request) fail(err error) {
	r.failOnce.Do(func() { r.err.Store(&err) })
}

func (r *request) failed() bool { return r.err.Load() != nil }

// finish retires n tiles; the retirer of the last tile completes the
// request.
func (r *request) finish(s *Server, n int) {
	if r.pending.Add(-int64(n)) > 0 {
		return
	}
	stat := RequestStat{
		Tiles:       r.tiles,
		Latency:     time.Since(r.enqueued),
		Compute:     time.Duration(r.computeNs.Load()),
		ExitedTiles: int(r.exited.Load()),
	}
	if st := r.started.Load(); st > 0 {
		stat.QueueWait = time.Unix(0, st).Sub(r.enqueued)
	} else {
		stat.QueueWait = stat.Latency
	}
	if ex := r.executed.Load(); ex > 0 {
		stat.MeanBatch = float64(r.batchSum.Load()) / float64(ex)
	}
	if errp := r.err.Load(); errp != nil {
		stat.Failed = true
		stat.Cancelled = errors.Is(*errp, context.Canceled) || errors.Is(*errp, context.DeadlineExceeded)
		s.failed.Add(1)
	} else {
		s.latency.Observe(stat.Latency.Seconds())
	}
	s.requests.Add(1)
	if s.cfg.OnStat != nil {
		s.cfg.OnStat(stat)
	}
	r.statOut = stat
	close(r.done)
}

// tileJob is one queue entry.
type tileJob struct {
	req  *request
	tile infer.Tile
}

// Server schedules Segment requests over replica workers.
type Server struct {
	cfg      Config
	channels int
	plans    infer.PlanCache // tilings per (H, W, overlap) seen
	// decodeQ holds full-decode tile jobs; exitQ holds exit-check jobs.
	// Without EarlyExit admission targets decodeQ directly and exitQ stays
	// empty; with it, admission targets exitQ and decodeQ receives only
	// demotions (tiles that failed their exit check).
	decodeQ chan *tileJob
	exitQ   chan *tileJob
	stop    chan struct{}
	workers sync.WaitGroup
	// mu guards admission against Close: Segment enqueues under RLock,
	// Close flips closed under Lock, so once Close holds the lock no new
	// tile can ever enter the queue.
	mu     sync.RWMutex
	closed bool
	// closeOnce serializes Close: concurrent callers all block until the
	// first call has fully drained the workers, so no Close ever returns
	// while requests are still in flight.
	closeOnce sync.Once

	start      time.Time
	latency    *metrics.Histogram
	exitLat    *metrics.Histogram // per exit-check batch compute seconds
	decodeLat  *metrics.Histogram // per full-decode batch compute seconds
	depth      metrics.Gauge
	requests   atomic.Uint64
	failed     atomic.Uint64
	tiles      atomic.Uint64
	batches    atomic.Uint64
	exitChecks atomic.Uint64
	exited     atomic.Uint64
}

// New builds a server over the given inference network: Replicas runners
// (each an isolated engine over a fresh inference clone of the network) and
// their worker goroutines. The network's weights are shared by reference;
// do not train the source model while the server is running.
func New(src *infer.Network, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("serve: replicas %d must be ≥ 1", cfg.Replicas)
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("serve: queue depth %d must be ≥ 1", cfg.QueueDepth)
	}
	if cfg.BatchDeadline < 0 {
		return nil, fmt.Errorf("serve: batch deadline %v must be ≥ 0", cfg.BatchDeadline)
	}
	if cfg.EarlyExit && src.Exit == nil {
		return nil, fmt.Errorf("serve: EarlyExit requires a network with an exit tap")
	}
	cfg.Tile.MaxBatch = cfg.MaxBatch
	runners := make([]*infer.Runner, cfg.Replicas)
	for i := range runners {
		r, err := infer.NewRunner(src, cfg.Tile)
		if err != nil {
			return nil, err
		}
		runners[i] = r
	}
	s := &Server{
		cfg:       cfg,
		channels:  runners[0].Channels(),
		decodeQ:   make(chan *tileJob, cfg.QueueDepth),
		exitQ:     make(chan *tileJob, cfg.QueueDepth),
		stop:      make(chan struct{}),
		start:     time.Now(),
		latency:   metrics.NewHistogram(),
		exitLat:   metrics.NewHistogram(),
		decodeLat: metrics.NewHistogram(),
	}
	for _, r := range runners {
		s.workers.Add(1)
		w := &worker{s: s, r: r,
			batch:  make([]*tileJob, 0, cfg.MaxBatch),
			items:  make([]infer.BatchItem, 0, cfg.MaxBatch),
			live:   make([]*tileJob, 0, cfg.MaxBatch),
			scores: make([]float64, cfg.MaxBatch),
		}
		go w.loop()
	}
	return s, nil
}

// SegmentOpts adjusts one request's tiling without touching the server
// configuration.
type SegmentOpts struct {
	// Overlap, when ≥ 0, overrides the tile halo width for this request
	// (−1 keeps the server's configured overlap). A smaller overlap widens
	// the tile stride, so the frame decomposes into fewer tiles — the
	// "degrade" backpressure lever: a cheaper frame at the cost of border
	// quality. The tile window itself is unchanged, so replica engines and
	// their cached executors are reused as-is.
	Overlap int
	// ExitBoost scales the server's exit threshold for this request
	// (0 means 1, i.e. the configured threshold). Values > 1 make exits
	// more likely — the streaming degrade ladder's first rung: cheaper
	// frames whose marginal tiles may lose faint detections, without
	// touching tiling geometry. Ignored without Config.EarlyExit.
	ExitBoost float64
}

// Segment schedules a [channels, H, W] field tensor for tiled segmentation
// and blocks until the stitched [H, W] mask is complete, the context is
// cancelled, or the server closes. The fields tensor must stay unmodified
// until Segment returns. Safe for concurrent use from any number of
// goroutines; concurrent requests' tiles share executor batches.
func (s *Server) Segment(ctx context.Context, fields *tensor.Tensor) (*tensor.Tensor, RequestStat, error) {
	return s.SegmentWith(ctx, fields, SegmentOpts{Overlap: -1})
}

// SegmentWith is Segment with per-request tiling options.
func (s *Server) SegmentWith(ctx context.Context, fields *tensor.Tensor, opts SegmentOpts) (*tensor.Tensor, RequestStat, error) {
	fs := fields.Shape()
	if fs.Rank() != 3 || fs[0] != s.channels {
		return nil, RequestStat{}, fmt.Errorf("serve: fields must be [%d,H,W], got %v", s.channels, fs)
	}
	tileCfg := s.cfg.Tile
	if opts.Overlap >= 0 {
		tileCfg.Overlap = opts.Overlap
	}
	tiles, err := s.plans.Plan(fs[1], fs[2], tileCfg)
	if err != nil {
		return nil, RequestStat{}, err
	}
	req := &request{
		ctx:      ctx,
		fields:   fields,
		mask:     tensor.New(tensor.Shape{fs[1], fs[2]}),
		tiles:    len(tiles),
		exitThr:  s.cfg.ExitThreshold,
		enqueued: time.Now(),
		jobs:     make([]tileJob, len(tiles)),
		done:     make(chan struct{}),
	}
	if opts.ExitBoost > 0 {
		req.exitThr *= opts.ExitBoost
	}
	req.pending.Store(int64(len(tiles)))
	admitQ := s.decodeQ
	if s.cfg.EarlyExit {
		admitQ = s.exitQ
	}

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, RequestStat{}, ErrClosed
	}
	admitted := 0
	for i, t := range tiles {
		req.jobs[i] = tileJob{req: req, tile: t}
		job := &req.jobs[i]
		select {
		case admitQ <- job:
			s.depth.Add(1)
			admitted++
		case <-ctx.Done():
			s.mu.RUnlock()
			req.fail(ctx.Err())
			// Tiles never admitted retire here; admitted ones retire as
			// workers skip them.
			req.finish(s, len(tiles)-admitted)
			<-req.done
			return nil, req.statOut, ctx.Err()
		}
	}
	s.mu.RUnlock()
	select {
	case <-req.done:
	case <-ctx.Done():
		req.fail(ctx.Err())
		// Wait for queued/in-flight tiles to drain (workers skip cancelled
		// jobs without computing them) so the caller's tensors are no
		// longer referenced when we return.
		<-req.done
	}
	// The outcome is sealed by whichever finish call retired the last tile:
	// a cancellation that raced a successful completion reports success.
	if req.statOut.Failed {
		return nil, req.statOut, *req.err.Load()
	}
	return req.mask, req.statOut, nil
}

// worker is one replica's scheduling loop and its batch scratch state.
type worker struct {
	s       *Server
	r       *infer.Runner
	batch   []*tileJob
	items   []infer.BatchItem
	live    []*tileJob
	scores  []float64
	demoted []*tileJob
	timer   *time.Timer
}

// loop drains both queue classes in micro-batches, always preferring exit
// checks: they are cheap and resolve most tiles outright, so a slow
// full-decode batch on this replica delays only other decodes.
func (w *worker) loop() {
	s := w.s
	defer s.workers.Done()
	defer w.r.Close()
	for {
		select {
		case job := <-s.exitQ:
			s.depth.Add(-1)
			w.runExit(w.gather(s.exitQ, job))
			continue
		default:
		}
		select {
		case job := <-s.exitQ:
			s.depth.Add(-1)
			w.runExit(w.gather(s.exitQ, job))
		case job := <-s.decodeQ:
			s.depth.Add(-1)
			w.runDecode(w.gather(s.decodeQ, job))
		case <-s.stop:
			// Drain whatever is still queued so every admitted request
			// completes before Close returns. Exit checks demote into the
			// decode queue, so re-check both classes until both are empty;
			// demotions landing after another worker returned are drained
			// by the worker that produced them.
			for {
				select {
				case job := <-s.exitQ:
					s.depth.Add(-1)
					w.runExit(w.gather(s.exitQ, job))
					continue
				default:
				}
				select {
				case job := <-s.decodeQ:
					s.depth.Add(-1)
					w.runDecode(w.gather(s.decodeQ, job))
				default:
					return
				}
			}
		}
	}
}

// gather assembles one micro-batch of a single class: the first job plus
// whatever is queued on q, up to MaxBatch, waiting at most BatchDeadline
// for stragglers once the queue runs dry.
func (w *worker) gather(q chan *tileJob, first *tileJob) []*tileJob {
	s := w.s
	batch := append(w.batch[:0], first)
	var deadline <-chan time.Time
	for len(batch) < s.cfg.MaxBatch {
		select {
		case j := <-q:
			s.depth.Add(-1)
			batch = append(batch, j)
			continue
		default:
		}
		if s.cfg.BatchDeadline <= 0 {
			return batch
		}
		if deadline == nil {
			if w.timer == nil {
				w.timer = time.NewTimer(s.cfg.BatchDeadline)
			} else {
				w.timer.Reset(s.cfg.BatchDeadline)
			}
			deadline = w.timer.C
		}
		select {
		case j := <-q:
			s.depth.Add(-1)
			batch = append(batch, j)
		case <-deadline:
			return batch
		case <-s.stop:
			w.timer.Stop()
			return batch
		}
	}
	if deadline != nil {
		w.timer.Stop()
	}
	return batch
}

// collectLive filters the batch down to jobs still worth computing: jobs of
// failed or cancelled requests retire immediately, the rest land in
// w.items/w.live with their request marked started.
func (w *worker) collectLive(batch []*tileJob) {
	w.items = w.items[:0]
	w.live = w.live[:0]
	for _, j := range batch {
		if !j.req.failed() {
			if err := j.req.ctx.Err(); err != nil {
				j.req.fail(err)
			}
		}
		if j.req.failed() {
			j.req.finish(w.s, 1)
			continue
		}
		j.req.started.CompareAndSwap(0, time.Now().UnixNano())
		w.items = append(w.items, infer.BatchItem{Fields: j.req.fields, Tile: j.tile, Mask: j.req.mask})
		w.live = append(w.live, j)
	}
}

// runExit scores one exit-check batch: tiles below their request's
// threshold finish with an all-background keep region; the rest demote to
// the decode queue.
func (w *worker) runExit(batch []*tileJob) {
	s := w.s
	w.collectLive(batch)
	n := len(w.live)
	if n == 0 {
		return
	}
	t0 := time.Now()
	err := w.r.ExitScores(w.items, w.scores, s.cfg.ExitHead)
	dur := time.Since(t0)
	if err != nil {
		for _, j := range w.live {
			j.req.fail(err)
			j.req.finish(s, 1)
		}
		return
	}
	s.exitChecks.Add(uint64(n))
	s.exitLat.Observe(dur.Seconds())
	share := dur.Nanoseconds() / int64(n)
	w.demoted = w.demoted[:0]
	for i, j := range w.live {
		j.req.computeNs.Add(share)
		if w.scores[i] < j.req.exitThr {
			infer.WriteBackground(w.items[i])
			j.req.exited.Add(1)
			s.exited.Add(1)
			j.req.finish(s, 1)
		} else {
			w.demoted = append(w.demoted, j)
		}
	}
	w.flushDemoted()
}

// flushDemoted moves exit-check survivors to the decode queue. When the
// decode backlog is full this worker clears a decode batch itself before
// retrying — the demotion path never blocks on a channel, so workers
// demoting concurrently cannot deadlock, and decode backpressure converts
// into decode progress instead of unbounded buffering.
func (w *worker) flushDemoted() {
	s := w.s
	for len(w.demoted) > 0 {
		j := w.demoted[len(w.demoted)-1]
		select {
		case s.decodeQ <- j:
			s.depth.Add(1)
			w.demoted = w.demoted[:len(w.demoted)-1]
			continue
		default:
		}
		select {
		case dj := <-s.decodeQ:
			s.depth.Add(-1)
			w.runDecode(w.gather(s.decodeQ, dj))
		default:
			// Raced with another worker draining the queue; capacity has
			// freed up — retry the push.
		}
	}
}

// runDecode executes one full-decode batch, stitches results, and retires
// every job.
func (w *worker) runDecode(batch []*tileJob) {
	s := w.s
	w.collectLive(batch)
	n := len(w.live)
	if n == 0 {
		return
	}
	t0 := time.Now()
	err := w.r.RunBatch(w.items)
	dur := time.Since(t0)
	if err != nil {
		for _, j := range w.live {
			j.req.fail(err)
		}
	} else {
		share := dur.Nanoseconds() / int64(n)
		for _, j := range w.live {
			j.req.batchSum.Add(int64(n))
			j.req.executed.Add(1)
			j.req.computeNs.Add(share)
		}
		s.tiles.Add(uint64(n))
		s.batches.Add(1)
		s.decodeLat.Observe(dur.Seconds())
	}
	for _, j := range w.live {
		j.req.finish(s, 1)
	}
}

// Stats returns a snapshot of the server's counters and latency quantiles.
func (s *Server) Stats() Stats {
	up := time.Since(s.start)
	st := Stats{
		Requests:       s.requests.Load(),
		Failed:         s.failed.Load(),
		Tiles:          s.tiles.Load(),
		Batches:        s.batches.Load(),
		LatencyP50:     time.Duration(s.latency.Quantile(0.50) * float64(time.Second)),
		LatencyP95:     time.Duration(s.latency.Quantile(0.95) * float64(time.Second)),
		LatencyP99:     time.Duration(s.latency.Quantile(0.99) * float64(time.Second)),
		QueueDepth:     int(s.depth.Value()),
		QueueDepthPeak: int(s.depth.Peak()),
		ExitChecks:     s.exitChecks.Load(),
		ExitedTiles:    s.exited.Load(),
		ExitCheckP50:   time.Duration(s.exitLat.Quantile(0.50) * float64(time.Second)),
		ExitCheckP99:   time.Duration(s.exitLat.Quantile(0.99) * float64(time.Second)),
		DecodeP50:      time.Duration(s.decodeLat.Quantile(0.50) * float64(time.Second)),
		DecodeP99:      time.Duration(s.decodeLat.Quantile(0.99) * float64(time.Second)),
		Uptime:         up,
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(st.Tiles) / float64(st.Batches)
	}
	if done := st.ExitedTiles + st.Tiles; done > 0 {
		st.ExitRate = float64(st.ExitedTiles) / float64(done)
	}
	if sec := up.Seconds(); sec > 0 {
		st.RequestsPerSec = float64(st.Requests-st.Failed) / sec
		st.TilesPerSec = float64(st.Tiles) / sec
	}
	return st
}

// Close drains the server gracefully: new Segment calls are refused,
// admitted requests run to completion, then workers exit and release their
// engines. Safe to call from any number of goroutines; every call blocks
// until the drain is complete, so when any Close returns no worker is
// running and no request is in flight. (A plain closed-flag fast path here
// would let a second concurrent Close return mid-drain — a caller tearing
// down engines on that signal would race the still-running workers.)
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock() // every in-flight Segment has enqueued all its tiles
		close(s.stop)
		s.workers.Wait()
	})
	return nil
}
