// Package fleet is the sharded serving fabric: a scatter/gather front end
// that spreads the tile queue of concurrent Segment requests across
// simulated shard nodes, exactly the way training spreads its gradient
// exchange — mpi ranks over a simnet fabric, real payloads on the wire,
// virtual clocks charged from the link model — so serving inherits the same
// at-scale analysis the paper applies to training. One process serves the
// correctness story for any shard count; the virtual clock serves the
// millions-of-users throughput story.
//
// # Architecture
//
// Rank 0 of the fleet's mpi world is the router: it admits requests (a
// bounded request channel gives front-end backpressure), decomposes each
// into tile jobs, and scatters the cropped tile windows to shard ranks
// 1..N as real mpi payloads. Routing is hash-affine — a tile's grid
// coordinates hash to a home shard, so repeated frames hit warm executors —
// with per-shard admission control: a shard holding AdmitPerShard
// outstanding tiles stops receiving and the router spills to the
// least-loaded healthy shard (the cheap form of straggler avoidance: load
// routes around a slow shard instead of queueing behind it). Results gather
// back to rank 0 as keep-region payloads and are stitched into the
// request's mask.
//
// Each shard rank owns ShardReplicas replica engines (isolated
// infer.Runner state, genuinely concurrent goroutines) and schedules
// same-generation micro-batches onto them. Virtual time inside a shard is a
// small queueing model: a batch starts at max(arrival, replica-free) and
// runs for a calibrated per-tile compute charge, so the shard's clock
// reflects pipelined replicas, not serialized ones.
//
// # Failure model
//
// Shard death is scheduled on a simnet.FaultFabric keyed by the admission
// sequence number (request k is the serving analogue of training step k).
// A dead shard stops computing: queued and in-flight tiles come back as
// typed dead replies, the router marks the shard failed, re-dispatches
// every lost tile to a healthy shard, and routes around the corpse from
// then on. Weights are identical on every shard, so re-dispatched tiles
// produce bit-identical masks — the chaos suite asserts exactly that. When
// no healthy shard remains, accepted requests fail with errNoShards.
//
// # Weight hot-swap
//
// See swap.go: generations of weights are installed make-before-break
// (rolling prepare per shard, then one atomic admission flip), every
// request is pinned to the generation current at its admission, and old
// generations are retired only after their last request completes — no
// request ever observes a mix of weight versions, and no request is ever
// dropped to make a swap happen.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Typed failures every accepted request resolves to (or nil on success).
var (
	// ErrClosed is returned by Segment after Close.
	ErrClosed = errors.New("fleet: fleet closed")
	// errNoShards fails requests whose tiles cannot run anywhere: every
	// shard in the fleet is dead.
	errNoShards = errors.New("fleet: no healthy shards")
)

// Message tags above the mpi collectives' namespaces.
const (
	tagTile   = 10 << 20 // router → shard: tile window payload + *wireTile
	tagResult = 11 << 20 // shard → router: keep-region payload + *wireResult, or control acks
	tagCtl    = 12 << 20 // router → shard: prepare/retire/shutdown control
)

// Config sizes the fleet.
type Config struct {
	// Shards is the number of shard nodes (default 1).
	Shards int
	// ShardReplicas is the number of replica engines per shard (default 1).
	ShardReplicas int
	// MaxBatch is the tile batch cap per replica executor run (default 1).
	MaxBatch int
	// AdmitPerShard bounds each shard's outstanding tiles — the per-shard
	// admission control (default 4×MaxBatch). The router never sends a
	// shard more than this; excess tiles wait at the front end or spill to
	// less-loaded shards.
	AdmitPerShard int
	// TileCost and ExitCost pin the per-tile decode and per-tile
	// exit-check virtual compute charges. Zero (the default) calibrates
	// them on a probe engine at construction. Pin them when comparing
	// fleets — virtual req/s across shard counts, say — so every
	// configuration prices compute identically; read the resolved charges
	// back with Fleet.TileCost / Fleet.ExitCost.
	TileCost time.Duration
	ExitCost time.Duration
	// QueueDepth bounds the front end's pending request queue (default 32);
	// Segment blocks — backpressure — while it is full.
	QueueDepth int
	// Tile is the tiling geometry and precision (MaxBatch above wins over
	// Tile.MaxBatch).
	Tile infer.Config
	// Fabric hosts the fleet: rank 0 is the router, ranks 1..Shards the
	// shard nodes. Nil defaults to simnet.ServingCluster(Shards). Wrap in a
	// simnet.FaultFabric (and schedule FailNode against it) for chaos runs;
	// node k+1 hosts shard k.
	Fabric simnet.Fabric
	// EarlyExit enables the adaptive background-tile path on every shard:
	// tiles are exit-checked on the encoder prefix and those scoring below
	// ExitThreshold skip the decoder (see serve / infer for the contract).
	EarlyExit     bool
	ExitThreshold float64
	ExitHead      *infer.ExitHead
	// NewNetwork builds a fresh instance of the serving architecture —
	// fresh parameter tensors, identical labels and shapes. Hot-swap needs
	// it to host each incoming weight generation without racing in-flight
	// inference on the old tensors. Nil disables SwapWeights (and the
	// Swapper).
	NewNetwork func() (*infer.Network, error)
	// OnStat, when non-nil, streams every finished request's RequestStat
	// (including failed ones) and must be safe for concurrent use.
	OnStat func(RequestStat)
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.ShardReplicas == 0 {
		c.ShardReplicas = 1
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 1
	}
	if c.AdmitPerShard == 0 {
		c.AdmitPerShard = 4 * c.MaxBatch
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 32
	}
	return c
}

// RequestStat is the per-request serving record.
type RequestStat struct {
	Tiles        int           // tile jobs the request decomposed into
	ExitedTiles  int           // tiles resolved by the early-exit path
	Redispatched int           // tiles re-sent after a shard died under them
	Latency      time.Duration // admission → completion (wall clock)
	// Version tags the weight generation every tile of this request was
	// decoded with (monotonic swap counter; 0 is the generation the fleet
	// started with), and Step is that generation's training step — the
	// closed training→serving loop's provenance tag.
	Version uint64
	Step    uint64
	// SwapWindow marks requests admitted while a rolling swap was in
	// progress — the population whose tail latency the swap-window p99
	// tracks.
	SwapWindow bool
	Cancelled  bool // failed by its own context
	Failed     bool // failed for any reason (includes Cancelled)
}

// Stats is a snapshot of fleet-level counters.
type Stats struct {
	Requests     uint64 // completed requests (including failed)
	Failed       uint64
	Tiles        uint64 // tiles decoded on shards
	ExitedTiles  uint64 // tiles resolved by the early-exit path
	Redispatched uint64 // tiles re-sent after shard deaths
	DeadShards   int
	Swaps        uint64 // completed weight swaps
	Version      uint64 // current admission weight generation
	Step         uint64 // its training step
	// Latency quantiles over successful requests (wall clock), plus the
	// same quantiles restricted to requests admitted inside a swap window.
	LatencyP50, LatencyP95, LatencyP99 time.Duration
	SwapWindowP99                      time.Duration
	SwapWindowRequests                 uint64
	// VirtualSeconds is the fleet's virtual makespan so far: the maximum
	// shard/router clock charged from the fabric model and the calibrated
	// compute cost. VirtualReqPerSec = successful requests over it — the
	// scaling-analysis throughput, comparable across shard counts on any
	// host.
	VirtualSeconds   float64
	VirtualReqPerSec float64
	Uptime           time.Duration
}

// tileJob is one tile of one request as the router tracks it.
type tileJob struct {
	req  *request
	tile infer.Tile
	// keepLen caches the keep-region element count for reply validation.
	shard int // current shard index, -1 while pending
	sent  int // times dispatched (sent-1 = re-dispatches)
}

// request is the shared state of one Segment call.
type request struct {
	ctx      context.Context
	fields   *tensor.Tensor
	mask     *tensor.Tensor
	tiles    []infer.Tile
	gen      *generation // weight generation pinned at admission
	seq      uint64      // admission sequence number (the chaos clock)
	swapWin  bool
	enqueued time.Time
	pending  atomic.Int64
	exited   atomic.Int64
	redisp   atomic.Int64
	failOnce sync.Once
	err      atomic.Pointer[error]
	done     chan struct{}
	statOut  RequestStat
}

func (r *request) fail(err error) {
	r.failOnce.Do(func() { r.err.Store(&err) })
}

func (r *request) failed() bool { return r.err.Load() != nil }

// finish retires n tiles; the retirer of the last completes the request.
func (r *request) finish(f *Fleet, n int) {
	if r.pending.Add(-int64(n)) > 0 {
		return
	}
	stat := RequestStat{
		Tiles:        len(r.tiles),
		ExitedTiles:  int(r.exited.Load()),
		Redispatched: int(r.redisp.Load()),
		Latency:      time.Since(r.enqueued),
		Version:      r.gen.num,
		Step:         r.gen.step,
		SwapWindow:   r.swapWin,
	}
	if errp := r.err.Load(); errp != nil {
		stat.Failed = true
		stat.Cancelled = errors.Is(*errp, context.Canceled) || errors.Is(*errp, context.DeadlineExceeded)
		f.failed.Add(1)
	} else {
		f.latency.Observe(stat.Latency.Seconds())
		if stat.SwapWindow {
			f.swapLat.Observe(stat.Latency.Seconds())
			f.swapWinReqs.Add(1)
		}
	}
	f.requests.Add(1)
	if f.cfg.OnStat != nil {
		f.cfg.OnStat(stat)
	}
	r.statOut = stat
	close(r.done)
}

// wireTile rides a scattered tile window (router → shard).
type wireTile struct {
	job *tileJob
	gen *generation
	// keep is the tile's keep-region extent, precomputed for the reply.
}

// Reply statuses. The zero value is reserved for "not yet resolved" so a
// replica can distinguish unset outcomes mid-batch.
const (
	replyOK      = iota + 1 // payload = keep-region class values
	replyExited             // tile resolved background by the exit path
	replySkipped            // request already failed; not computed
	replyDead               // shard was dead; tile not (or no longer) computed
)

// wireResult rides a gathered result (shard → router).
type wireResult struct {
	job    *tileJob
	status int
	err    error // engine failure (fails the request), nil otherwise
}

// ctl kinds (router → shard control, and shard → router acks on tagResult).
const (
	ctlPrepare = iota
	ctlRetire
	ctlShutdown
)

type wireCtl struct {
	kind int
	gen  *generation
}

type ctlAck struct {
	kind  int
	shard int
	err   error // prepare failures surface to the SwapWeights caller
}

// ctlMsg is a control request from the API side into the router loop.
type ctlMsg struct {
	kind int
	gen  *generation
	ack  chan error
}

// Fleet is the scatter/gather serving front end. Create with New, issue
// requests with Segment from any number of goroutines, swap weights with
// SwapWeights (or a Swapper), and Close to drain.
type Fleet struct {
	cfg      Config
	channels int
	plans    infer.PlanCache // tilings per (H, W) seen
	world    *mpi.World
	fabric   simnet.Fabric

	admitCh chan *request
	ctlCh   chan ctlMsg
	stop    chan struct{}
	runDone chan float64 // World.Run makespan, delivered once
	// routerGone closes when the router loop returns; control-plane sends
	// select on it so a Close racing a swap cannot strand the swapper.
	routerGone chan struct{}

	// mu guards admission against Close (the serve pattern: Segment admits
	// under RLock, Close flips closed under Lock). closeOnce makes every
	// concurrent Close wait for the full drain.
	mu        sync.RWMutex
	closed    bool
	closeOnce sync.Once

	// genMu guards the generation table and the current-admission pointer;
	// swapMu serializes whole SwapWeights protocols.
	swapMu  sync.Mutex
	genMu   sync.Mutex
	gens    map[uint64]*generation
	cur     *generation
	nextGen uint64
	// swapActive marks the rolling prepare→flip window.
	swapActive atomic.Bool

	seq atomic.Uint64 // admission sequence — the chaos fabric's clock

	// Calibrated virtual compute charges (seconds).
	perTileVirtual float64
	perExitVirtual float64

	// shardClocks[i] publishes shard i's virtual clock (Float64bits).
	shardClocks []atomic.Uint64
	routerClock atomic.Uint64

	start       time.Time
	latency     *metrics.Histogram
	swapLat     *metrics.Histogram
	requests    atomic.Uint64
	failed      atomic.Uint64
	tiles       atomic.Uint64
	exited      atomic.Uint64
	redisp      atomic.Uint64
	swaps       atomic.Uint64
	swapWinReqs atomic.Uint64
	deadShards  atomic.Int64

	hashSeed maphash.Seed
}

// New builds a fleet over the given inference network (weight generation 0)
// and starts its router and shard ranks. The network's weights are shared
// by reference with every shard's replica engines; do not train the source
// model while the fleet is running — ship new weights through SwapWeights
// instead.
func New(src *infer.Network, cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: shards %d must be ≥ 1", cfg.Shards)
	}
	if cfg.ShardReplicas < 1 {
		return nil, fmt.Errorf("fleet: shard replicas %d must be ≥ 1", cfg.ShardReplicas)
	}
	if cfg.AdmitPerShard < cfg.MaxBatch {
		return nil, fmt.Errorf("fleet: admit-per-shard %d must be ≥ max batch %d",
			cfg.AdmitPerShard, cfg.MaxBatch)
	}
	if cfg.EarlyExit && src.Exit == nil {
		return nil, fmt.Errorf("fleet: EarlyExit requires a network with an exit tap")
	}
	cfg.Tile.MaxBatch = cfg.MaxBatch
	if cfg.Fabric == nil {
		cfg.Fabric = simnet.ServingCluster(cfg.Shards)
	}
	if cfg.Fabric.Size() != cfg.Shards+1 {
		return nil, fmt.Errorf("fleet: fabric has %d ranks, want %d (router + %d shards)",
			cfg.Fabric.Size(), cfg.Shards+1, cfg.Shards)
	}

	gen0 := &generation{num: 0, net: src}
	f := &Fleet{
		cfg:         cfg,
		world:       mpi.NewWorld(cfg.Fabric),
		fabric:      cfg.Fabric,
		admitCh:     make(chan *request, cfg.QueueDepth),
		ctlCh:       make(chan ctlMsg),
		stop:        make(chan struct{}),
		runDone:     make(chan float64, 1),
		routerGone:  make(chan struct{}),
		gens:        map[uint64]*generation{0: gen0},
		cur:         gen0,
		nextGen:     1,
		shardClocks: make([]atomic.Uint64, cfg.Shards),
		start:       time.Now(),
		latency:     metrics.NewHistogram(),
		swapLat:     metrics.NewHistogram(),
		hashSeed:    maphash.MakeSeed(),
	}

	// Probe the engine once for the input geometry and the virtual compute
	// charges, before any rank starts.
	probe, err := infer.NewRunner(src, cfg.Tile)
	if err != nil {
		return nil, err
	}
	f.channels = probe.Channels()
	f.calibrate(probe)
	probe.Close()

	go func() {
		makespan := f.world.Run(func(c *mpi.Comm) {
			if c.Rank() == 0 {
				f.router(c)
			} else {
				f.shard(c, c.Rank()-1)
			}
		})
		f.runDone <- makespan
	}()
	return f, nil
}

// calibrate resolves the per-tile decode (and exit-check) virtual compute
// charges: Config pins win; otherwise the probe engine runs one warm-up
// pass plus three timed passes and keeps the fastest, since wall-clock
// noise (GC pauses, frequency shifts, noisy neighbours) only ever
// inflates a pass.
func (f *Fleet) calibrate(r *infer.Runner) {
	const floor = 1e-6 // never charge below 1 µs/tile
	f.perTileVirtual = math.Max(floor, f.cfg.TileCost.Seconds())
	f.perExitVirtual = math.Max(floor, f.cfg.ExitCost.Seconds())
	if f.cfg.TileCost > 0 && (!f.cfg.EarlyExit || f.cfg.ExitCost > 0) {
		return
	}
	th, tw := f.cfg.Tile.TileH, f.cfg.Tile.TileW
	rng := rand.New(rand.NewSource(1))
	window := tensor.RandNormal(tensor.Shape{f.channels, th, tw}, 0, 1, rng)
	mask := tensor.New(tensor.Shape{th, tw})
	items := make([]infer.BatchItem, f.cfg.MaxBatch)
	for i := range items {
		items[i] = infer.BatchItem{
			Fields: window,
			Tile:   infer.Tile{KeepY1: th, KeepX1: tw},
			Mask:   mask,
		}
	}
	const passes = 3
	if f.cfg.TileCost == 0 {
		best := math.Inf(1)
		for pass := 0; pass <= passes; pass++ {
			t0 := time.Now()
			if err := r.RunBatch(items); err != nil {
				return // calibration failure surfaces on the serving path
			}
			if pass > 0 { // pass 0 warms clone-and-replan setup
				best = math.Min(best, time.Since(t0).Seconds())
			}
		}
		f.perTileVirtual = math.Max(floor, best/float64(len(items)))
	}
	if f.cfg.EarlyExit && f.cfg.ExitCost == 0 {
		scores := make([]float64, len(items))
		best := math.Inf(1)
		for pass := 0; pass <= passes; pass++ {
			t0 := time.Now()
			if err := r.ExitScores(items, scores, f.cfg.ExitHead); err != nil {
				return
			}
			if pass > 0 {
				best = math.Min(best, time.Since(t0).Seconds())
			}
		}
		f.perExitVirtual = math.Max(floor, best/float64(len(items)))
	}
}

// TileCost is the per-tile decode virtual compute charge in effect —
// Config.TileCost when pinned, the calibrated probe measurement otherwise.
// Pass it to another fleet's Config to price both identically.
func (f *Fleet) TileCost() time.Duration {
	return time.Duration(f.perTileVirtual * float64(time.Second))
}

// ExitCost is the per-tile exit-check virtual compute charge in effect.
func (f *Fleet) ExitCost() time.Duration {
	return time.Duration(f.perExitVirtual * float64(time.Second))
}

// Channels returns the expected input channel count.
func (f *Fleet) Channels() int { return f.channels }

// Segment schedules a [channels, H, W] field tensor for sharded tiled
// segmentation and blocks until the stitched [H, W] mask is complete, the
// context is cancelled, or the fleet closes. Every tile of the request is
// decoded with the weight generation current at admission (RequestStat
// .Version), regardless of in-flight swaps. Safe for concurrent use.
func (f *Fleet) Segment(ctx context.Context, fields *tensor.Tensor) (*tensor.Tensor, RequestStat, error) {
	fs := fields.Shape()
	if fs.Rank() != 3 || fs[0] != f.channels {
		return nil, RequestStat{}, fmt.Errorf("fleet: fields must be [%d,H,W], got %v", f.channels, fs)
	}
	tiles, err := f.plans.Plan(fs[1], fs[2], f.cfg.Tile)
	if err != nil {
		return nil, RequestStat{}, err
	}
	req := &request{
		ctx:      ctx,
		fields:   fields,
		mask:     tensor.New(tensor.Shape{fs[1], fs[2]}),
		tiles:    tiles,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	req.pending.Store(int64(len(tiles)))

	f.mu.RLock()
	if f.closed {
		f.mu.RUnlock()
		return nil, RequestStat{}, ErrClosed
	}
	f.genMu.Lock()
	req.gen = f.cur
	if err := ctx.Err(); err != nil {
		// Already cancelled: retire unadmitted, before pinning. The admission
		// select below would pick a ready admitCh over ctx.Done at random.
		f.genMu.Unlock()
		f.mu.RUnlock()
		req.fail(err)
		req.finish(f, len(tiles))
		return nil, req.statOut, err
	}
	// Pin the weight generation and hold it live until the request retires.
	req.gen.inflight.Add(1)
	f.genMu.Unlock()
	req.swapWin = f.swapActive.Load()
	req.seq = f.seq.Add(1)
	select {
	case f.admitCh <- req:
		f.mu.RUnlock()
	case <-ctx.Done():
		f.mu.RUnlock()
		req.gen.inflight.Add(-1)
		req.fail(ctx.Err())
		req.finish(f, len(tiles))
		<-req.done
		return nil, req.statOut, ctx.Err()
	}
	select {
	case <-req.done:
	case <-ctx.Done():
		req.fail(ctx.Err())
		// Wait for the router and shards to retire every tile (they skip
		// failed requests without computing) so the caller's tensors are no
		// longer referenced when we return.
		<-req.done
	}
	req.gen.inflight.Add(-1)
	// The outcome is sealed by whichever finish retired the last tile.
	if req.statOut.Failed {
		return nil, req.statOut, *req.err.Load()
	}
	return req.mask, req.statOut, nil
}

// Stats returns a snapshot of fleet counters, latency quantiles, and the
// virtual-clock throughput.
func (f *Fleet) Stats() Stats {
	f.genMu.Lock()
	cur := f.cur
	f.genMu.Unlock()
	st := Stats{
		Requests:           f.requests.Load(),
		Failed:             f.failed.Load(),
		Tiles:              f.tiles.Load(),
		ExitedTiles:        f.exited.Load(),
		Redispatched:       f.redisp.Load(),
		DeadShards:         int(f.deadShards.Load()),
		Swaps:              f.swaps.Load(),
		Version:            cur.num,
		Step:               cur.step,
		LatencyP50:         time.Duration(f.latency.Quantile(0.50) * float64(time.Second)),
		LatencyP95:         time.Duration(f.latency.Quantile(0.95) * float64(time.Second)),
		LatencyP99:         time.Duration(f.latency.Quantile(0.99) * float64(time.Second)),
		SwapWindowP99:      time.Duration(f.swapLat.Quantile(0.99) * float64(time.Second)),
		SwapWindowRequests: f.swapWinReqs.Load(),
		Uptime:             time.Since(f.start),
	}
	vmax := math.Float64frombits(f.routerClock.Load())
	for i := range f.shardClocks {
		if v := math.Float64frombits(f.shardClocks[i].Load()); v > vmax {
			vmax = v
		}
	}
	st.VirtualSeconds = vmax
	if vmax > 0 {
		st.VirtualReqPerSec = float64(st.Requests-st.Failed) / vmax
	}
	return st
}

// Close drains the fleet gracefully: new Segment calls are refused,
// admitted requests run to completion, shards shut down, and the mpi world
// retires. Safe to call from any number of goroutines; every call blocks
// until the drain is complete.
func (f *Fleet) Close() error {
	f.closeOnce.Do(func() {
		f.mu.Lock()
		f.closed = true
		f.mu.Unlock() // every admitted request is in admitCh or beyond
		close(f.stop)
		<-f.runDone // router drained, shards acked shutdown, world retired
	})
	return nil
}
