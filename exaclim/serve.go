package exaclim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/infer"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// ServeStat is the per-request serving record: how many tiles the request
// decomposed into, the mean executor batch its tiles rode in, how many
// tiles the early-exit path resolved, and its latency decomposed into
// queue wait and compute time.
type ServeStat = serve.RequestStat

// ServerStats is a snapshot of server-level counters: request/tile
// throughput, latency quantiles (p50/p95/p99), batch occupancy, queue
// depth, and the early-exit path's counters (checks, exits, exit rate,
// per-path compute quantiles).
type ServerStats = serve.Stats

// ExitCalibration is the result of an offline CalibrateExit pass: the
// threshold, the storm/background tile census it was derived from, and the
// exit rate it predicts.
type ExitCalibration = infer.Calibration

// Typed serving failures, matched with errors.Is.
var (
	// ErrServerClosed: Segment was called on a Server after Close.
	ErrServerClosed = serve.ErrClosed
	// ErrUnquantizable: INT8 serving met weights the quantizer cannot
	// represent (NaN or Inf, as a diverged training run leaves them, or
	// magnitudes so small the code step underflows). Model.Segment and
	// Server.Segment return it wrapped.
	ErrUnquantizable = compress.ErrUnquantizable
)

// ServerOption configures NewServer.
type ServerOption func(*serverOptions)

type serverOptions struct {
	err       error
	replicas  int
	maxBatch  int
	queue     int
	deadline  time.Duration
	segment   SegmentConfig
	earlyExit bool
	exitThr   float64
	exitHead  *infer.ExitHead
	observer  func(ServeStat)
}

// WithReplicas sets the number of replica workers, each with an isolated
// inference engine (executors, plans, and a private tensor pool), so
// replicas never contend on execution state. Default 1.
func WithReplicas(n int) ServerOption {
	return func(o *serverOptions) {
		if n < 1 {
			o.err = fmt.Errorf("exaclim: WithReplicas wants n ≥ 1, got %d", n)
			return
		}
		o.replicas = n
	}
}

// WithMaxBatch sets how many tiles — across requests — are stacked into
// one executor run. Stitched masks are bit-identical for every batch size;
// larger batches amortize per-run cost. Default 8.
func WithMaxBatch(n int) ServerOption {
	return func(o *serverOptions) {
		if n < 1 {
			o.err = fmt.Errorf("exaclim: WithMaxBatch wants n ≥ 1, got %d", n)
			return
		}
		o.maxBatch = n
	}
}

// WithQueueDepth bounds the admission queue in tiles; admission blocks
// (backpressure) while it is full. Default 256.
func WithQueueDepth(n int) ServerOption {
	return func(o *serverOptions) {
		if n < 1 {
			o.err = fmt.Errorf("exaclim: WithQueueDepth wants n ≥ 1, got %d", n)
			return
		}
		o.queue = n
	}
}

// WithBatchDeadline sets how long a worker holding a partial batch waits
// for more tiles before running it — latency traded for batch occupancy
// under bursty load. Default 200µs; 0 runs whatever is queued immediately.
func WithBatchDeadline(d time.Duration) ServerOption {
	return func(o *serverOptions) {
		if d < 0 {
			o.err = fmt.Errorf("exaclim: WithBatchDeadline wants d ≥ 0, got %v", d)
			return
		}
		o.deadline = d
	}
}

// WithServeSegmentConfig sets the tiling geometry and precision requests
// are served with (SegmentConfig.MaxBatch is ignored here — WithMaxBatch
// governs the server's batching).
func WithServeSegmentConfig(cfg SegmentConfig) ServerOption {
	return func(o *serverOptions) { o.segment = cfg }
}

// WithServePrecision selects the inference kernel set requests are served
// with: FP32 (the bit-parity reference), FP16, or INT8 (symmetric
// per-channel quantized conv/GEMM kernels). It overrides the Precision of
// any WithServeSegmentConfig. (The name differs from the training option
// WithPrecision because serving and training precisions are independent
// knobs: a model trained in FP16 may serve in INT8 and vice versa.)
func WithServePrecision(p Precision) ServerOption {
	return func(o *serverOptions) { o.segment.Precision = p }
}

// WithEarlyExit enables the adaptive background-tile path with a manual
// exit threshold over the raw encoder-prefix energy score (mean absolute
// tap activation): tiles scoring below it skip the deep decoder and emit an
// all-background mask region. Requires a model whose network carries an
// exit tap (both registered networks do). Prefer WithCalibratedExit, which
// serves the fitted confidence head and the threshold calibrated against
// it as a pair.
func WithEarlyExit(threshold float64) ServerOption {
	return func(o *serverOptions) {
		if threshold < 0 {
			o.err = fmt.Errorf("exaclim: WithEarlyExit wants threshold ≥ 0, got %v", threshold)
			return
		}
		o.earlyExit = true
		o.exitThr = threshold
		o.exitHead = nil
	}
}

// WithCalibratedExit enables the adaptive background-tile path with the
// confidence head and threshold of an offline CalibrateExit run — the
// normal way to turn early exit on. On the calibration fields the served
// masks are bit-identical to full decodes by construction; on unseen
// traffic the guarantee is statistical (see Model.CalibrateExit).
func WithCalibratedExit(cal ExitCalibration) ServerOption {
	return func(o *serverOptions) {
		if len(cal.Head.Weights) == 0 {
			o.err = fmt.Errorf("exaclim: WithCalibratedExit wants a CalibrateExit result (empty head)")
			return
		}
		head := cal.Head
		o.earlyExit = true
		o.exitThr = cal.Threshold
		o.exitHead = &head
	}
}

// WithServeObserver streams every finished request's ServeStat (including
// failed and cancelled requests) to obs, from worker goroutines: obs must
// be safe for concurrent use and return quickly.
func WithServeObserver(obs func(ServeStat)) ServerOption {
	return func(o *serverOptions) { o.observer = obs }
}

// Server is a batched tiled-inference service over one trained model: a
// bounded admission queue, cross-request micro-batching, and replica
// workers with isolated execution state. Create with NewServer, issue
// requests with Segment from any number of goroutines, and Close to drain.
type Server struct {
	inner *serve.Server
	model *Model
}

// NewServer builds a serving stack over the model. The model's weights are
// shared by reference with the server's inference clones: do not train the
// model (or load a checkpoint into it) while the server is running;
// sequential train → serve is fine.
func NewServer(m *Model, opts ...ServerOption) (*Server, error) {
	o := &serverOptions{
		replicas: 1,
		maxBatch: 8,
		queue:    256,
		deadline: 200 * time.Microsecond,
	}
	for _, opt := range opts {
		opt(o)
	}
	if o.err != nil {
		return nil, o.err
	}
	tile, err := m.inferConfig(o.segment)
	if err != nil {
		return nil, err
	}
	inner, err := serve.New(m.adapter(), serve.Config{
		Replicas:      o.replicas,
		MaxBatch:      o.maxBatch,
		QueueDepth:    o.queue,
		BatchDeadline: o.deadline,
		Tile:          tile,
		EarlyExit:     o.earlyExit,
		ExitThreshold: o.exitThr,
		ExitHead:      o.exitHead,
		OnStat:        o.observer,
	})
	if err != nil {
		return nil, err
	}
	return &Server{inner: inner, model: m}, nil
}

// Segment schedules a [channels, H, W] field tensor for tiled segmentation
// and blocks until the stitched [H, W] class mask is complete, the context
// is cancelled, or the server closes. Its ServeStat is returned alongside
// (and streamed to WithServeObserver). Safe for concurrent use; concurrent
// requests' tiles coalesce into shared executor batches.
func (s *Server) Segment(ctx context.Context, fields *tensor.Tensor) (*tensor.Tensor, ServeStat, error) {
	return s.inner.Segment(ctx, fields)
}

// Stats snapshots the server's throughput, latency quantiles, batch
// occupancy, and queue depth.
func (s *Server) Stats() ServerStats { return s.inner.Stats() }

// Close drains the server: running requests finish, new ones are refused.
// Safe to call more than once.
func (s *Server) Close() error { return s.inner.Close() }

// CalibrateExit fits the early-exit confidence head and its threshold
// offline: every tile of the calibration fields is fully decoded and its
// exit-tap features pooled with the exact engine configuration of cfg
// (geometry, precision, batching); the head is a closed-form ridge fit of
// storm-in-keep-region against those features; and the threshold is the
// largest value that exits no tile whose decoded keep region contains a
// storm pixel — so on the calibration set, serving with
// WithCalibratedExit(result) produces masks bit-identical to full decodes.
// margin in (0, 1] pulls the threshold down toward the background score
// floor for headroom on unseen traffic (0 means 1, no headroom).
func (m *Model) CalibrateExit(fields []*tensor.Tensor, cfg SegmentConfig, margin float64) (ExitCalibration, error) {
	icfg, err := m.inferConfig(cfg)
	if err != nil {
		return ExitCalibration{}, err
	}
	r, err := infer.NewRunner(m.adapter(), icfg)
	if err != nil {
		return ExitCalibration{}, err
	}
	defer r.Close()
	return r.Calibrate(fields, margin)
}
