package exaclim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/tensor"
)

// ErrFleetClosed is returned by Fleet.Segment and Fleet.SwapCheckpoint
// once the fleet is closed.
var ErrFleetClosed = fleet.ErrClosed

// FleetStat is the per-request record of sharded serving: tile counts
// (including early-exited and re-dispatched tiles), latency, and the
// weight version — generation number and training step — every tile of
// the request was decoded with.
type FleetStat = fleet.RequestStat

// FleetStats is a snapshot of fleet-level counters: throughput, failures,
// re-dispatches, dead shards, completed swaps, the current weight version,
// latency quantiles (overall and inside swap windows), and the
// virtual-clock scaling figures (VirtualSeconds, VirtualReqPerSec).
type FleetStats = fleet.Stats

// FleetOption configures NewFleet.
type FleetOption func(*fleetOptions)

type fleetOptions struct {
	err        error
	shards     int
	replicas   int
	maxBatch   int
	admit      int
	queue      int
	segment    SegmentConfig
	earlyExit  bool
	exitThr    float64
	exitHead   *infer.ExitHead
	observer   func(FleetStat)
	hotswapDir string
	hotswapInt time.Duration
}

// WithShards sets the number of shard nodes the tile queue is scattered
// across. Each shard is a simulated node on the serving fabric with its
// own replica engines and virtual clock. Default 1.
func WithShards(n int) FleetOption {
	return func(o *fleetOptions) {
		if n < 1 {
			o.err = fmt.Errorf("exaclim: WithShards wants n ≥ 1, got %d", n)
			return
		}
		o.shards = n
	}
}

// WithShardReplicas sets the number of replica engines per shard, each
// with isolated execution state. Default 1.
func WithShardReplicas(n int) FleetOption {
	return func(o *fleetOptions) {
		if n < 1 {
			o.err = fmt.Errorf("exaclim: WithShardReplicas wants n ≥ 1, got %d", n)
			return
		}
		o.replicas = n
	}
}

// WithAdmission bounds each shard's outstanding tiles — the per-shard
// admission control. The router never holds more than n tiles at a shard;
// excess load spills to the least-loaded healthy shard (straggler
// avoidance) or waits at the front end. Default 4× the batch size.
func WithAdmission(n int) FleetOption {
	return func(o *fleetOptions) {
		if n < 1 {
			o.err = fmt.Errorf("exaclim: WithAdmission wants n ≥ 1, got %d", n)
			return
		}
		o.admit = n
	}
}

// WithHotSwap starts a checkpoint watcher over dir: every committed
// training snapshot newer than the last one served is rolled into the
// fleet with the no-drain hot-swap protocol (see Fleet.SwapCheckpoint).
// poll is the directory polling interval; 0 or negative means 50ms.
func WithHotSwap(dir string, poll time.Duration) FleetOption {
	return func(o *fleetOptions) {
		if dir == "" {
			o.err = fmt.Errorf("exaclim: WithHotSwap wants a checkpoint directory")
			return
		}
		o.hotswapDir = dir
		o.hotswapInt = poll
	}
}

// WithFleetMaxBatch sets how many tiles are stacked into one replica
// executor run. Masks are bit-identical for every batch size. Default 8.
func WithFleetMaxBatch(n int) FleetOption {
	return func(o *fleetOptions) {
		if n < 1 {
			o.err = fmt.Errorf("exaclim: WithFleetMaxBatch wants n ≥ 1, got %d", n)
			return
		}
		o.maxBatch = n
	}
}

// WithFleetQueueDepth bounds the front end's pending request queue;
// Segment blocks (backpressure) while it is full. Default 32.
func WithFleetQueueDepth(n int) FleetOption {
	return func(o *fleetOptions) {
		if n < 1 {
			o.err = fmt.Errorf("exaclim: WithFleetQueueDepth wants n ≥ 1, got %d", n)
			return
		}
		o.queue = n
	}
}

// WithFleetSegmentConfig sets the tiling geometry and precision requests
// are served with (SegmentConfig.MaxBatch is ignored — WithFleetMaxBatch
// governs the fleet's batching).
func WithFleetSegmentConfig(cfg SegmentConfig) FleetOption {
	return func(o *fleetOptions) { o.segment = cfg }
}

// WithFleetEarlyExit enables the adaptive background-tile path on every
// shard with a manual threshold over the raw encoder-prefix energy score,
// exactly as WithEarlyExit does for the single-process server.
func WithFleetEarlyExit(threshold float64) FleetOption {
	return func(o *fleetOptions) {
		if threshold < 0 {
			o.err = fmt.Errorf("exaclim: WithFleetEarlyExit wants threshold ≥ 0, got %v", threshold)
			return
		}
		o.earlyExit = true
		o.exitThr = threshold
		o.exitHead = nil
	}
}

// WithFleetCalibratedExit enables the adaptive background-tile path with
// the head/threshold pair of an offline Model.CalibrateExit run — the
// normal way to turn early exit on for a fleet.
func WithFleetCalibratedExit(cal ExitCalibration) FleetOption {
	return func(o *fleetOptions) {
		if len(cal.Head.Weights) == 0 {
			o.err = fmt.Errorf("exaclim: WithFleetCalibratedExit wants a CalibrateExit result (empty head)")
			return
		}
		head := cal.Head
		o.earlyExit = true
		o.exitThr = cal.Threshold
		o.exitHead = &head
	}
}

// WithFleetObserver streams every finished request's FleetStat (including
// failed ones) to obs. obs runs on fleet goroutines: it must be safe for
// concurrent use and return quickly.
func WithFleetObserver(obs func(FleetStat)) FleetOption {
	return func(o *fleetOptions) { o.observer = obs }
}

// Fleet is a sharded serving front end over one trained model: the tile
// queue of concurrent Segment requests is scattered across simulated shard
// nodes (with per-shard admission control, hash-affine routing, and
// re-dispatch around dead shards) and new training checkpoints roll in as
// live weight hot-swaps that never drop or mix a request. Create with
// NewFleet, issue requests with Segment from any number of goroutines, and
// Close to drain.
//
// Because shards are ranks of a simulated fabric with virtual clocks, a
// Fleet also answers the scaling question: FleetStats.VirtualReqPerSec is
// the fleet's throughput under the serving fabric's network model,
// comparable across shard counts on any host.
type Fleet struct {
	inner   *fleet.Fleet
	model   *Model
	swapper *fleet.Swapper
}

// NewFleet builds a sharded serving fleet over the model. The model's
// weights are shared by reference with generation 0 of the fleet: do not
// train the model while the fleet is running — ship new weights through
// SwapCheckpoint or WithHotSwap instead.
func NewFleet(m *Model, opts ...FleetOption) (*Fleet, error) {
	o := &fleetOptions{
		shards:   1,
		replicas: 1,
		maxBatch: 8,
		queue:    32,
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
	var factory func() (*infer.Network, error)
	if m.rebuild != nil {
		rebuild := m.rebuild
		factory = func() (*infer.Network, error) {
			net, err := rebuild()
			if err != nil {
				return nil, err
			}
			return infer.FromModel(net), nil
		}
	}
	inner, err := fleet.New(m.adapter(), fleet.Config{
		Shards:        o.shards,
		ShardReplicas: o.replicas,
		MaxBatch:      o.maxBatch,
		AdmitPerShard: o.admit,
		QueueDepth:    o.queue,
		Tile:          tile,
		EarlyExit:     o.earlyExit,
		ExitThreshold: o.exitThr,
		ExitHead:      o.exitHead,
		NewNetwork:    factory,
		OnStat:        o.observer,
	})
	if err != nil {
		return nil, err
	}
	f := &Fleet{inner: inner, model: m}
	if o.hotswapDir != "" {
		f.swapper = inner.WatchSnapshots(o.hotswapDir, o.hotswapInt, nil)
	}
	return f, nil
}

// Segment schedules a [channels, H, W] field tensor for sharded tiled
// segmentation and blocks until the stitched [H, W] mask is complete, the
// context is cancelled, or the fleet closes. Every tile of the request is
// decoded with the weight version current at admission (FleetStat.Version
// / .Step), even when hot-swaps are rolling. Safe for concurrent use.
func (f *Fleet) Segment(ctx context.Context, fields *tensor.Tensor) (*tensor.Tensor, FleetStat, error) {
	return f.inner.Segment(ctx, fields)
}

// SwapCheckpoint rolls the training snapshot at path (or, given a
// directory, its latest committed snapshot) into the fleet as the new
// serving weights: shards warm the new generation one at a time while the
// rest keep serving, admissions flip atomically, in-flight requests finish
// on the weights they started with, and the old generation's engines are
// released when its last request completes. No accepted request is dropped
// or served by a mix of versions.
func (f *Fleet) SwapCheckpoint(path string) error {
	state, err := models.LoadSnapshotFile(path)
	if err != nil {
		return err
	}
	return f.inner.SwapWeights(state)
}

// Stats snapshots the fleet's counters, latency quantiles, and
// virtual-clock throughput.
func (f *Fleet) Stats() FleetStats { return f.inner.Stats() }

// Close drains the fleet: the hot-swap watcher (if any) stops, running
// requests finish, new ones are refused, and every shard's engines are
// released. Safe to call from multiple goroutines; all block until the
// drain completes.
func (f *Fleet) Close() error {
	if f.swapper != nil {
		f.swapper.Stop()
	}
	return f.inner.Close()
}
