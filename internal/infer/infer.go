// Package infer runs trained segmentation networks over images larger than
// the network's input window by tiling: the image is covered with
// overlapping tiles, each tile is segmented independently, and only the
// interior of each tile (past the convolutional receptive-field margin) is
// written to the output mask. This is how a model trained at a fixed
// resolution serves the paper's science use case — producing storm masks
// over arbitrary simulation output — on hardware that cannot hold the
// 1152×768×16 activations of a full-resolution pass.
//
// Execution is batched: up to Config.MaxBatch tiles are stacked into the
// batch dimension of one pooled-executor run, so per-run costs (executor
// scheduling, workspace traffic, kernel dispatch, normalization setup)
// amortize across the batch. Every kernel in the stack computes each batch
// element with arithmetic independent of its batch neighbors (convolutions
// run per-image GEMMs of batch-invariant dimensions; inference batch norm
// uses per-sample statistics), so the stitched mask is bit-identical for
// every batch size — MaxBatch 1 is the serial reference path.
package infer

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Network is the slice of a model the inference path needs: feed an image
// window, read logits. It carries handles into the source (training) graph;
// execution happens on inference clones built by a Runner, which share the
// source graph's parameter tensors by reference.
type Network struct {
	Graph  *graph.Graph
	Images *graph.Node // [N, C, th, tw]
	Logits *graph.Node // [N, classes, th, tw]
	// Exit is the encoder's first-stage output (models.Network.ExitTap):
	// the cheap graph prefix the early-exit path evaluates to decide
	// whether a tile can skip the deep decoder. Nil disables early exit.
	Exit *graph.Node // [N, C', h', w']
}

// FromModel adapts a trained models.Network for inference. The loss head
// and its label/weight inputs are pruned when the Runner clones the graph,
// so no placeholder feeds are needed.
func FromModel(net *models.Network) *Network {
	return &Network{Graph: net.Graph, Images: net.Images, Logits: net.Logits, Exit: net.ExitTap}
}

// Config controls the tiling and batching.
type Config struct {
	TileH, TileW int // network window size
	// Overlap is the margin (pixels) discarded on every interior tile edge.
	// It must be at least the network's receptive-field radius for the
	// stitched output to match a monolithic full-image pass.
	Overlap int
	// Precision selects the kernel set of this engine. FP32 is the
	// bit-parity reference (identical to the training kernels); FP16
	// round-trips every op output through half precision; INT8 replaces
	// the inference conv/GEMM kernels with symmetric 8-bit quantized ones
	// (see the precision contract on the package-level docs in
	// adaptive.go). The zero value is FP32.
	Precision graph.Precision
	// MaxBatch is the number of tiles stacked into one executor run
	// (0 → 1, the serial path). The final batch of a pass may be ragged;
	// any batch up to a branch's capacity runs on that branch's one clone.
	MaxBatch int
}

func (c Config) validate() error {
	if c.TileH < 1 || c.TileW < 1 {
		return fmt.Errorf("infer: tile %dx%d", c.TileH, c.TileW)
	}
	if c.Overlap < 0 || 2*c.Overlap >= c.TileH || 2*c.Overlap >= c.TileW {
		return fmt.Errorf("infer: overlap %d incompatible with tile %dx%d",
			c.Overlap, c.TileH, c.TileW)
	}
	if c.MaxBatch < 0 {
		return fmt.Errorf("infer: max batch %d must be ≥ 0", c.MaxBatch)
	}
	return nil
}

// maxBatch returns the effective batch cap (the zero value means serial).
func (c Config) maxBatch() int {
	if c.MaxBatch < 1 {
		return 1
	}
	return c.MaxBatch
}

// Tile is one window placement: the source rectangle and the sub-rectangle
// of it whose predictions are kept.
type Tile struct {
	Y, X           int // top-left corner in the image
	KeepY0, KeepY1 int // rows of the tile to keep (half-open)
	KeepX0, KeepX1 int // cols of the tile to keep
}

// Plan computes a tiling of an h×w image: tiles step by tile−2·overlap, the
// final tile in each axis is shifted inward so every tile is full-size, and
// keep-regions tile the image exactly once.
func Plan(h, w int, cfg Config) ([]Tile, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if h < cfg.TileH || w < cfg.TileW {
		return nil, fmt.Errorf("infer: image %dx%d smaller than tile %dx%d",
			h, w, cfg.TileH, cfg.TileW)
	}
	ys := positions(h, cfg.TileH, cfg.Overlap)
	xs := positions(w, cfg.TileW, cfg.Overlap)
	var tiles []Tile
	for yi, y := range ys {
		for xi, x := range xs {
			t := Tile{Y: y, X: x}
			t.KeepY0, t.KeepY1 = keep(cfg.TileH, ys, yi)
			t.KeepX0, t.KeepX1 = keep(cfg.TileW, xs, xi)
			tiles = append(tiles, t)
		}
	}
	return tiles, nil
}

// PlanCache memoizes Plan for callers that tile the same few image sizes
// over and over (a server's requests): a hit costs a map lookup instead of
// the tiling's half-dozen allocations. The returned slice is shared — treat
// it as read-only. The zero value is ready to use and safe for concurrent
// use.
type PlanCache struct {
	mu    sync.Mutex
	plans map[planKey][]Tile
}

// planKey is every input Plan reads.
type planKey struct{ h, w, tileH, tileW, overlap int }

// planCacheMax bounds the cache: sizes beyond the first planCacheMax
// distinct ones are planned afresh on every call, so a client cycling
// through image sizes cannot grow a server's memory.
const planCacheMax = 64

// Plan returns Plan(h, w, cfg), computing it at most once per geometry.
func (c *PlanCache) Plan(h, w int, cfg Config) ([]Tile, error) {
	key := planKey{h, w, cfg.TileH, cfg.TileW, cfg.Overlap}
	c.mu.Lock()
	tiles, ok := c.plans[key]
	c.mu.Unlock()
	if ok {
		return tiles, nil
	}
	tiles, err := Plan(h, w, cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.plans == nil {
		c.plans = make(map[planKey][]Tile)
	}
	if len(c.plans) < planCacheMax {
		c.plans[key] = tiles
	}
	c.mu.Unlock()
	return tiles, nil
}

// positions returns tile origins covering size with the given window and
// overlap; the last origin is clamped so the window stays inside.
func positions(size, window, overlap int) []int {
	step := window - 2*overlap
	var out []int
	for p := 0; ; p += step {
		if p+window >= size {
			out = append(out, size-window)
			return out
		}
		out = append(out, p)
	}
}

// keep computes the half-open keep range within the i-th tile so that
// adjacent tiles' keep regions partition the image: each tile keeps from
// the midpoint of its overlap with the previous tile to the midpoint of its
// overlap with the next.
func keep(window int, origins []int, i int) (int, int) {
	origin := origins[i]
	lo := 0
	if i > 0 {
		prevEnd := origins[i-1] + window
		lo = (origin+prevEnd)/2 - origin
	}
	hi := window
	if i < len(origins)-1 {
		nextStart := origins[i+1]
		hi = (nextStart+origin+window)/2 - origin
	}
	return lo, hi
}

// branch is one of a Runner's two execution paths: the full decode (root
// is the source logits) or the early exit (root is the source exit tap).
// It holds one inference clone of the source subgraph computing root,
// planned for a capacity of window.Shape()[0] rows, that clone's pooled
// executor, and the window tiles are cropped into; a batch of n tiles runs
// as the clone's n-row prefix. g is nil until the branch is first sized.
type branch struct {
	root   *graph.Node
	g      *graph.Graph
	out    *graph.Node
	ex     *graph.Executor
	window *tensor.Tensor                 // [capacity, C, th, tw]
	feed   *tensor.Tensor                 // the first n rows of window
	feeds  map[*graph.Node]*tensor.Tensor // clone's image input → feed
}

// Runner is a persistent tiled-segmentation engine over one network: the
// per-replica worker of the serving stack, and the engine behind one-shot
// Run. It owns an isolated tensor pool (replicas never contend) shared by
// its two branches, full decode and early exit, each of which is one
// inference clone and one pooled executor. A branch is sized by its first
// batch (or by Warm) and re-sized at most once, straight to MaxBatch; every
// batch of n ≤ capacity tiles runs as an n-row prefix of the same clone on
// the same recycled buffers.
//
// A Runner executes inference clones with per-instance kernel state, so it
// must be used by one goroutine at a time. The clones share the source
// model's parameter tensors by reference: training the model concurrently
// with a Runner is a data race, but sequential train → serve → train is
// fine (clones see updated weights written in place).
type Runner struct {
	src      *Network
	cfg      Config
	channels int
	classes  int
	pool     *tensor.Pool
	decode   branch
	exit     branch    // root is nil when the network has no exit tap
	feats    []float64 // ExitScores' pooled-feature scratch
}

// NewRunner validates the configuration against the network window and
// returns an engine with no executors built yet (each branch is built on
// first use, or by Warm).
func NewRunner(net *Network, cfg Config) (*Runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	is := net.Images.Shape
	if is.Rank() != 4 {
		return nil, fmt.Errorf("infer: network input must be [N,C,H,W], got %v", is)
	}
	if is[2] != cfg.TileH || is[3] != cfg.TileW {
		return nil, fmt.Errorf("infer: network window %dx%d does not match tile %dx%d",
			is[2], is[3], cfg.TileH, cfg.TileW)
	}
	return &Runner{
		src:      net,
		cfg:      cfg,
		channels: is[1],
		classes:  net.Logits.Shape[1],
		pool:     tensor.NewPool(),
		decode:   branch{root: net.Logits},
		exit:     branch{root: net.Exit},
	}, nil
}

// Channels returns the network's expected input channel count.
func (r *Runner) Channels() int { return r.channels }

// MaxBatch returns the effective tile batch cap.
func (r *Runner) MaxBatch() int { return r.cfg.maxBatch() }

// PoolStats returns the runner's workspace-pool counters.
func (r *Runner) PoolStats() tensor.PoolStats { return r.pool.Stats() }

// prepare makes branch b able to run n rows: it builds the branch at
// capacity n on first use and, when n outgrows that capacity, rebuilds it
// once at MaxBatch, returning the old clone's buffers to the pool.
func (r *Runner) prepare(b *branch, n int) error {
	if b.root == nil {
		return fmt.Errorf("infer: network has no exit tap")
	}
	if b.g != nil && n <= b.window.Shape()[0] {
		return nil
	}
	capacity := n
	if b.g != nil {
		capacity = r.cfg.maxBatch()
		b.release()
	}
	g, m, err := graph.CloneExitBranch(r.src.Graph, r.src.Logits, b.root, capacity, nn.InferenceFusions)
	if err != nil {
		return err
	}
	if r.cfg.Precision == graph.INT8 {
		if err := nn.MarkInt8(g); err != nil {
			return err
		}
	}
	images := m[r.src.Images]
	if images == nil {
		return fmt.Errorf("infer: %s does not depend on the image input", b.root.Label)
	}
	feed := new(tensor.Tensor)
	*b = branch{
		root:   b.root,
		g:      g,
		out:    m[b.root],
		ex:     graph.NewPooledExecutor(g, r.cfg.Precision, int64(capacity), r.pool),
		window: tensor.New(tensor.NCHW(capacity, r.channels, r.cfg.TileH, r.cfg.TileW)),
		feed:   feed,
		feeds:  map[*graph.Node]*tensor.Tensor{images: feed},
	}
	return nil
}

// exec runs branch b on the first n rows of its window and returns the
// branch output ([n, ...], valid until the branch runs again).
func (b *branch) exec(n int) (*tensor.Tensor, error) {
	b.feed.ViewRows(b.window, n)
	if err := b.ex.Forward(b.feeds); err != nil {
		return nil, fmt.Errorf("infer: batch of %d tiles: %w", n, err)
	}
	return b.ex.Value(b.out), nil
}

// release returns the branch's buffers to the pool and drops its clone and
// per-op kernel caches; the branch is rebuilt on its next use.
func (b *branch) release() {
	if b.g == nil {
		return
	}
	b.ex.Release()
	graph.ReleaseOpCaches(b.g)
	*b = branch{root: b.root}
}

// forward crops the items into branch b's window, runs the branch, and
// returns its output for the len(items) tiles.
func (r *Runner) forward(b *branch, items []BatchItem) (*tensor.Tensor, error) {
	n := len(items)
	if n > r.cfg.maxBatch() {
		return nil, fmt.Errorf("infer: batch of %d exceeds max batch %d", n, r.cfg.maxBatch())
	}
	if err := r.prepare(b, n); err != nil {
		return nil, err
	}
	th, tw := r.cfg.TileH, r.cfg.TileW
	for i, it := range items {
		fs := it.Fields.Shape()
		if fs.Rank() != 3 || fs[0] != r.channels {
			return nil, fmt.Errorf("infer: fields must be [%d,H,W], got %v", r.channels, fs)
		}
		crop(it.Fields, b.window, i, it.Tile.Y, it.Tile.X, th, tw)
	}
	return b.exec(n)
}

// Warm sizes the decode branch for batch tiles — and the early-exit branch
// too when exit is set and the network has an exit tap — and runs one real
// pass through each, so a first batch of up to that many tiles pays no
// clone, replan or buffer fault. The serving fleet's rolling hot-swap warms
// each new weight generation's runners during the prepare phase, so the
// swap is make-before-break for tail latency, not just for correctness.
func (r *Runner) Warm(batch int, exit bool) error {
	if batch < 1 || batch > r.cfg.maxBatch() {
		return fmt.Errorf("infer: warm batch %d outside [1, %d]", batch, r.cfg.maxBatch())
	}
	branches := []*branch{&r.decode}
	if exit && r.HasExit() {
		branches = append(branches, &r.exit)
	}
	for _, b := range branches {
		if err := r.prepare(b, batch); err != nil {
			return err
		}
		if _, err := b.exec(batch); err != nil {
			return err
		}
	}
	return nil
}

// Close releases both branches' buffers back to the runner's pool and
// drops per-op kernel caches, so a retired replica pins no memory.
func (r *Runner) Close() {
	r.decode.release()
	r.exit.release()
}

// BatchItem is one tile of one segmentation request: where to read the
// window, and which mask to stitch the keep-region into. Items in a batch
// may belong to different requests (cross-request micro-batching).
type BatchItem struct {
	Fields *tensor.Tensor // [C, H, W] source field stack
	Tile   Tile
	Mask   *tensor.Tensor // [H, W] destination class mask
}

// RunBatch segments up to MaxBatch tiles in one executor run and stitches
// each tile's keep-region into its item's mask. Tiles of one batch are
// computed with arithmetic independent of each other, so any grouping of
// tiles into batches produces identical masks.
func (r *Runner) RunBatch(items []BatchItem) error {
	if len(items) == 0 {
		return nil
	}
	logits, err := r.forward(&r.decode, items)
	if err != nil {
		return err
	}
	for i, it := range items {
		r.stitch(logits, i, it)
	}
	return nil
}

// stitch writes the argmax class of batch element i's keep-region into the
// item's mask, reading logits [N, classes, th, tw] directly (no
// intermediate prediction tensor). The argmax scan order matches
// loss.Predictions (first maximum wins), so masks are identical to the
// historical predict-then-copy path.
func (r *Runner) stitch(logits *tensor.Tensor, i int, it BatchItem) {
	th, tw := r.cfg.TileH, r.cfg.TileW
	hw := th * tw
	ld := logits.Data()[i*r.classes*hw:]
	md := it.Mask.Data()
	w := it.Mask.Shape()[1]
	t := it.Tile
	for y := t.KeepY0; y < t.KeepY1; y++ {
		row := md[(t.Y+y)*w+t.X:]
		for x := t.KeepX0; x < t.KeepX1; x++ {
			p := y*tw + x
			best, bi := float32(math.Inf(-1)), 0
			for ch := 0; ch < r.classes; ch++ {
				if v := ld[ch*hw+p]; v > best {
					best, bi = v, ch
				}
			}
			row[x] = float32(bi)
		}
	}
}

// Segment runs the full tiled pass over a [C, H, W] field tensor and
// returns the [H, W] class mask, batching tiles up to MaxBatch.
func (r *Runner) Segment(fields *tensor.Tensor) (*tensor.Tensor, error) {
	fs := fields.Shape()
	if fs.Rank() != 3 {
		return nil, fmt.Errorf("infer: fields must be [C,H,W], got %v", fs)
	}
	if fs[0] != r.channels {
		return nil, fmt.Errorf("infer: fields have %d channels, network wants %d", fs[0], r.channels)
	}
	tiles, err := Plan(fs[1], fs[2], r.cfg)
	if err != nil {
		return nil, err
	}
	mask := tensor.New(tensor.Shape{fs[1], fs[2]})
	kb := r.cfg.maxBatch()
	items := make([]BatchItem, 0, kb)
	for start := 0; start < len(tiles); start += kb {
		end := min(start+kb, len(tiles))
		items = items[:0]
		for _, t := range tiles[start:end] {
			items = append(items, BatchItem{Fields: fields, Tile: t, Mask: mask})
		}
		if err := r.RunBatch(items); err != nil {
			return nil, err
		}
	}
	return mask, nil
}

// Run segments a [C, H, W] field tensor and returns the [H, W] class mask —
// the one-shot form of a Runner, for callers that segment a single image.
// Persistent callers (and the serving stack) hold a Runner instead, which
// keeps its executors, plans, and pooled buffers across calls.
func Run(net *Network, fields *tensor.Tensor, cfg Config) (*tensor.Tensor, error) {
	r, err := NewRunner(net, cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Segment(fields)
}

// crop copies the [th, tw] window at (y, x) of src [C, H, W] into batch
// element b of dst [N, C, th, tw].
func crop(src, dst *tensor.Tensor, b, y, x, th, tw int) {
	ss := src.Shape()
	c, h, w := ss[0], ss[1], ss[2]
	sd, dd := src.Data(), dst.Data()[b*c*th*tw:]
	for ch := 0; ch < c; ch++ {
		for r := 0; r < th; r++ {
			sOff := ch*h*w + (y+r)*w + x
			dOff := ch*th*tw + r*tw
			copy(dd[dOff:dOff+tw], sd[sOff:sOff+tw])
		}
	}
}
