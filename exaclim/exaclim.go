// Package exaclim is the public face of the repro library: one functional-
// options API over the internal training stack that reproduces "Exascale
// Deep Learning for Climate Analytics" (Kurth et al., SC18).
//
// An experiment is assembled from options, then run under a context:
//
//	exp, err := exaclim.New(
//	    exaclim.WithNetwork("tiramisu", exaclim.Tiny),
//	    exaclim.WithRanks(8, 2),
//	    exaclim.WithPrecision(exaclim.FP16),
//	    exaclim.WithHybridAllReduce(),
//	)
//	res, err := exp.Run(ctx)
//
// Networks, optimizers, and loss weightings are looked up by name in
// registries (Networks, Optimizers, Weightings list the keys), so CLI
// flags map directly onto the API. Progress can be streamed with
// WithObserver, runs cancel cleanly through the context, and the trained
// model comes back on Result.Model for checkpointing (SaveCheckpoint) and
// tiled inference (Segment). Presets Quickstart and SummitScale mirror the
// paper's Tiramisu and DeepLabv3+ configurations.
//
// Long runs are preemptible: WithCheckpointEvery/WithCheckpointDir write
// full training-state snapshots (weights, optimizer moments, FP16 loss
// scaler, data cursors, step counter) asynchronously off the hot path,
// and WithResume continues an interrupted run bit-exactly. See
// Example_trainCheckpointResume and the README operations runbook.
package exaclim

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/climate"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/horovod"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Experiment is a fully-resolved training configuration, ready to Run.
type Experiment struct {
	cfg       core.Config
	observers []Observer
	network   string
	size      Size
	model     ModelConfig
}

// New resolves the options into an Experiment. All registry lookups and
// consistency checks happen here, so a returned Experiment always runs.
func New(opts ...Option) (*Experiment, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(o)
	}
	if o.err != nil {
		return nil, o.err
	}

	build, err := networks.lookup(o.network)
	if err != nil {
		return nil, err
	}
	optimizer, err := optimizers.lookup(o.optimizer)
	if err != nil {
		return nil, err
	}
	weighting, err := weightings.lookup(o.weighting)
	if err != nil {
		return nil, err
	}

	if o.ranks < 1 || o.perNode < 1 || o.ranks%o.perNode != 0 {
		return nil, fmt.Errorf("exaclim: ranks (%d) must be a positive multiple of gpus-per-node (%d)",
			o.ranks, o.perNode)
	}
	if o.steps < 1 {
		return nil, fmt.Errorf("exaclim: steps must be positive, got %d", o.steps)
	}
	if o.valEvery > 0 && o.valSize == 0 {
		return nil, fmt.Errorf("exaclim: WithValidationEvery requires WithValidation")
	}
	if o.schedule != nil && o.polyDecay {
		return nil, fmt.Errorf("exaclim: WithLRSchedule and WithPolynomialDecay are mutually exclusive")
	}
	if o.ckptEvery > 0 && o.ckptDir == "" {
		return nil, fmt.Errorf("exaclim: WithCheckpointEvery requires WithCheckpointDir")
	}
	if o.ckptDir != "" && o.ckptEvery == 0 {
		return nil, fmt.Errorf("exaclim: WithCheckpointDir requires WithCheckpointEvery")
	}
	if o.resume != "" && o.initCkpt != "" {
		return nil, fmt.Errorf("exaclim: WithResume (full state) and WithInitCheckpoint (weights only) are mutually exclusive")
	}

	// Elastic training: node failures and EASGD churn need the trajectory
	// defined over a global batch so the surviving world can continue it;
	// default to one column per rank when the caller didn't size it.
	if (len(o.failures) > 0 || o.churn.Mode == ChurnEASGD) && o.globalBatch == 0 {
		o.globalBatch = o.ranks
	}
	if o.globalBatch > 0 {
		if o.hybrid {
			return nil, fmt.Errorf("exaclim: elastic training (WithGlobalBatch/WithNodeFailure/WithChurnPolicy) is incompatible with WithHybridAllReduce — gradients combine over the canonical world-size-invariant tree")
		}
		if o.wire != WireFP32 {
			return nil, fmt.Errorf("exaclim: elastic training requires the FP32 wire format")
		}
	}

	// Dataset: explicit > synthetic spec > a default synthetic set sized to
	// the model input (24×32 when that too is unset).
	dataset := o.dataset
	if dataset == nil {
		spec := o.synth
		if spec == nil {
			h, w := o.model.Height, o.model.Width
			if h == 0 || w == 0 {
				h, w = 24, 32
			}
			spec = &synthSpec{height: h, width: w, samples: 32, seed: 42}
		}
		dataset = SyntheticDataset(spec.height, spec.width, spec.samples, spec.seed)
	}

	model := o.model
	if len(o.channels) > 0 && model.InChannels == 0 {
		model.InChannels = len(o.channels)
	}
	model = model.withDefaults(dataset.Cfg.Height, dataset.Cfg.Width)
	if model.Seed == 0 {
		model.Seed = o.seed + 1
	}
	if model.Symbolic {
		return nil, fmt.Errorf("exaclim: symbolic models cannot train; use BuildModel for analysis")
	}

	fabric := o.fabric
	nodes := o.ranks / o.perNode
	switch {
	case fabric != nil:
		if fabric.Size() != o.ranks {
			return nil, fmt.Errorf("exaclim: fabric size %d != ranks %d", fabric.Size(), o.ranks)
		}
	case o.summit:
		if o.perNode != 6 {
			return nil, fmt.Errorf("exaclim: Summit packs 6 GPUs per node, got WithRanks(%d, %d)",
				o.ranks, o.perNode)
		}
		fabric = simnet.Summit(nodes)
	case o.perNode > 1:
		fabric = simnet.NewTwoLevelFabric(nodes, o.perNode,
			simnet.LinkSpec{LatencySec: 1e-6, BytesPerSec: 150e9},
			simnet.LinkSpec{LatencySec: 1.5e-6, BytesPerSec: 12.5e9})
	case len(o.failures) > 0:
		// Loopback packs every rank onto one node, so a node failure there
		// would kill the whole world; churn experiments get one rank per
		// node (the same links a two-level WithRanks run would use).
		fabric = simnet.NewTwoLevelFabric(o.ranks, 1,
			simnet.LinkSpec{LatencySec: 1e-6, BytesPerSec: 150e9},
			simnet.LinkSpec{LatencySec: 1.5e-6, BytesPerSec: 12.5e9})
	default:
		fabric = simnet.Loopback(o.ranks)
	}
	if len(o.failures) > 0 {
		maxNode := (fabric.Size() - 1) / fabric.RanksPerNode()
		ff := simnet.NewFaultFabric(fabric)
		for _, f := range o.failures {
			if f.node > maxNode {
				return nil, fmt.Errorf("exaclim: WithNodeFailure(%d, %d) on a run with nodes 0..%d", f.node, f.atStep, maxNode)
			}
			ff.FailNode(f.node, f.atStep)
		}
		fabric = ff
	}

	hvd := horovod.Tree(o.radix)
	if o.flatCtl {
		hvd = horovod.Flat(o.ranks)
	}

	schedule := o.schedule
	if o.polyDecay {
		schedule = opt.PolynomialDecay(o.lr, o.polyEnd, o.steps, o.polyPower)
	}
	if o.warmup > 0 {
		base := schedule
		if base == nil {
			lr := o.lr
			base = func(int) float64 { return lr }
		}
		schedule = opt.LinearWarmup(base, o.warmup)
	}

	buildNet := func() (*models.Network, error) {
		net, err := build(o.size, modelsConfig(model))
		if err != nil {
			return nil, err
		}
		if o.initCkpt != "" {
			if err := loadWeights(o.initCkpt, net.Graph); err != nil {
				return nil, err
			}
		}
		return net, nil
	}

	return &Experiment{
		cfg: core.Config{
			BuildNet:           buildNet,
			Precision:          o.precision,
			LossScale:          o.lossScale,
			Optimizer:          optimizer,
			LR:                 o.lr,
			UseLARC:            o.larc,
			LARCTrust:          o.larcTrust,
			GradientLag:        o.lag,
			LRSchedule:         schedule,
			Weighting:          weighting,
			Dataset:            dataset,
			Channels:           o.channels,
			Ranks:              o.ranks,
			Fabric:             fabric,
			Horovod:            hvd,
			HybridReduce:       o.hybrid,
			FusionBufferBytes:  o.fusionBytes,
			Wire:               o.wire,
			Steps:              o.steps,
			Seed:               o.seed,
			ValidationSize:     o.valSize,
			ValidateEvery:      o.valEvery,
			StepComputeSeconds: o.stepSeconds,
			KernelWorkers:      o.kernelWorkers,
			KernelISA:          o.kernelISA,
			CheckpointEvery:    o.ckptEvery,
			CheckpointDir:      o.ckptDir,
			CheckpointRetain:   o.ckptRetain,
			CheckpointSync:     o.ckptSync,
			ResumeFrom:         o.resume,
			ElasticResume:      o.elasticResume,
			GlobalBatch:        o.globalBatch,
			SnapshotCompact:    o.compactSnaps,
			Churn:              o.churn,
		},
		observers: o.observers,
		network:   o.network,
		size:      o.size,
		model:     model,
	}, nil
}

// Dataset returns the dataset the experiment trains on.
func (e *Experiment) Dataset() *climate.Dataset { return e.cfg.Dataset }

// ControlPlaneStats is rank 0's Horovod control-plane traffic.
type ControlPlaneStats struct {
	CtlSent     int // control messages sent
	CtlReceived int // control messages received
	Batches     int // all-reduce batches (fusion buckets) executed
	// WireBytes is the gradient payload presented to the cross-node
	// reduction at the wire width (each element once per step, not per
	// hop). The hybrid reducer's intra-node NVLink phases always run FP32
	// and are not counted here.
	WireBytes int64
}

// MemoryStats is rank 0's workspace-pool traffic for the run: how much of
// the execution's buffer demand was served by reuse instead of allocation.
type MemoryStats struct {
	Requests   uint64 // buffer requests served by the workspace pool
	Allocs     uint64 // requests that had to allocate fresh memory
	Reuses     uint64 // requests served from recycled buffers
	BytesAlloc uint64 // bytes newly allocated over the whole run
}

// Result summarizes a finished (or cancelled) run.
type Result struct {
	History      []StepStat
	ValHistory   []ValStat // populated by WithValidationEvery
	FinalLoss    float64
	IoU          []float64 // per class (index with ClassBackground, ClassTC, ClassAR)
	MeanIoU      float64
	Accuracy     float64
	Makespan     float64 // virtual seconds for the whole run
	SkippedSteps int     // FP16 overflow skips
	ControlPlane ControlPlaneStats
	Memory       MemoryStats // workspace allocation/reuse counters
	// OverlapFraction is the mean fraction of gradient-exchange buckets
	// reduced before each backward pass finished (0 under
	// WithChurnPolicy's EASGD mode, which has no per-step exchange).
	OverlapFraction float64
	// WireBytes is rank 0's cumulative gradient payload presented to the
	// cross-node reduction at the wire width (see ControlPlaneStats) —
	// WithWireFormat(WireFP16) halves it.
	WireBytes int64
	// Model is the trained model (rank 0's replica; all replicas are
	// identical after a synchronous run).
	Model *Model
	// StartStep is the first step this process trained: 0 normally, the
	// snapshot's step under WithResume. History covers [StartStep, steps).
	StartStep int
	// Checkpoints counts full-state snapshots committed by this run, and
	// LastCheckpoint is the newest committed path (empty when none).
	Checkpoints    int
	LastCheckpoint string
	// RestoredHistory and RestoredValHistory are the convergence curves
	// carried over from the resumed snapshot, covering [0, StartStep) —
	// prepend them to History/ValHistory to plot the full trajectory across
	// restarts. Restored entries keep only Step/Loss/Skipped (and the
	// validation metrics); per-process fields such as VirtualTime read zero.
	// Empty on fresh runs.
	RestoredHistory    []StepStat
	RestoredValHistory []ValStat
}

// Run executes the experiment. Cancelling the context stops training at
// the next step boundary on every rank and returns the partial Result
// together with the context's error; any other error returns a nil Result.
func (e *Experiment) Run(ctx context.Context) (*Result, error) {
	cfg := e.cfg
	cfg.Ctx = ctx
	if n := len(e.observers); n > 0 {
		obs := e.observers
		cfg.OnStep = func(s core.StepStat) {
			for _, ob := range obs {
				ob.OnStep(StepStat(s))
			}
		}
		cfg.OnValidation = func(v core.ValStat) {
			for _, ob := range obs {
				ob.OnValidation(ValStat(v))
			}
		}
	}
	var res *core.Result
	var err error
	if cfg.GlobalBatch > 0 {
		// Elastic runs go through the churn-surviving driver: on a node
		// failure it restarts from the last snapshot on the survivors and
		// stitches the attempts into one continuous Result.
		res, err = core.TrainElastic(cfg)
	} else {
		res, err = core.Train(cfg)
	}
	if res == nil {
		return nil, err
	}
	out := &Result{
		History:         make([]StepStat, len(res.History)),
		ValHistory:      make([]ValStat, len(res.ValHistory)),
		FinalLoss:       res.FinalLoss,
		IoU:             res.IoU,
		MeanIoU:         res.MeanIoU,
		Accuracy:        res.Accuracy,
		Makespan:        res.Makespan,
		SkippedSteps:    res.SkippedSteps,
		ControlPlane:    ControlPlaneStats(res.CtlStats),
		OverlapFraction: res.OverlapFrac,
		WireBytes:       res.CtlStats.WireBytes,
		StartStep:       res.StartStep,
		Checkpoints:     res.CheckpointsWritten,
		LastCheckpoint:  res.LastCheckpoint,
		Memory: MemoryStats{
			Requests:   res.PoolStats.Gets,
			Allocs:     res.PoolStats.Misses,
			Reuses:     res.PoolStats.Reuses(),
			BytesAlloc: res.PoolStats.Bytes,
		},
	}
	for i, h := range res.History {
		out.History[i] = StepStat(h)
	}
	for i, v := range res.ValHistory {
		out.ValHistory[i] = ValStat(v)
	}
	if len(res.RestoredHistory) > 0 {
		out.RestoredHistory = make([]StepStat, len(res.RestoredHistory))
		for i, h := range res.RestoredHistory {
			out.RestoredHistory[i] = StepStat(h)
		}
	}
	if len(res.RestoredValHistory) > 0 {
		out.RestoredValHistory = make([]ValStat, len(res.RestoredValHistory))
		for i, v := range res.RestoredValHistory {
			out.RestoredValHistory[i] = ValStat(v)
		}
	}
	if res.Net != nil {
		out.Model = &Model{name: e.network, net: res.Net, rebuild: rebuilder(e.network, e.size, e.model)}
	}
	return out, err
}

// SmoothedLoss returns a moving average over the loss history with the
// given window (the paper's Fig 6 uses 10).
func (r *Result) SmoothedLoss(window int) []float64 {
	hist := make([]core.StepStat, len(r.History))
	for i, h := range r.History {
		hist[i] = core.StepStat(h)
	}
	return core.SmoothedLoss(hist, window)
}

// LossImproved reports whether the smoothed loss fell by at least frac
// over the run — a convergence check robust to step noise.
func (r *Result) LossImproved(frac float64) bool {
	hist := make([]core.StepStat, len(r.History))
	for i, h := range r.History {
		hist[i] = core.StepStat(h)
	}
	return core.LossImproved(hist, frac)
}

// SyntheticDataset generates a deterministic synthetic CAM5-style climate
// dataset: height×width grids of the 16 atmospheric channels with
// heuristically-labeled tropical cyclones and atmospheric rivers.
func SyntheticDataset(height, width, samples int, seed int64) *climate.Dataset {
	return climate.NewDataset(climate.DefaultGenConfig(height, width, seed), samples)
}

// Model wraps a built network with its post-training utilities. The
// inference adapter and the tiled-segmentation engine behind Segment are
// built on first use and cached on the model, so repeated Segment calls
// reuse executors, plans, and pooled buffers instead of rebuilding them per
// call. A Model's Segment is safe for one goroutine at a time; for
// concurrent serving build a Server (NewServer).
type Model struct {
	name string
	net  *models.Network
	// rebuild constructs a fresh instance of the same architecture — fresh
	// parameter tensors, identical labels and shapes. The serving fleet's
	// hot-swap path hosts each incoming weight generation on its own
	// instance so in-flight inference on the old tensors is never touched.
	rebuild func() (*models.Network, error)

	mu        sync.Mutex
	adapted   *infer.Network
	runner    *infer.Runner
	runnerCfg infer.Config
}

// rebuilder returns a factory producing fresh instances of a registered
// network at a resolved size/config.
func rebuilder(network string, size Size, cfg ModelConfig) func() (*models.Network, error) {
	return func() (*models.Network, error) {
		build, err := networks.lookup(network)
		if err != nil {
			return nil, err
		}
		return build(size, modelsConfig(cfg))
	}
}

// BuildModel constructs a registered network standalone — for inference
// from a checkpoint, or (with cfg.Symbolic) for paper-scale analysis.
func BuildModel(network string, size Size, cfg ModelConfig) (*Model, error) {
	build, err := networks.lookup(network)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(24, 32)
	net, err := build(size, modelsConfig(cfg))
	if err != nil {
		return nil, err
	}
	return &Model{name: network, net: net, rebuild: rebuilder(network, size, cfg)}, nil
}

func modelsConfig(c ModelConfig) models.Config {
	return models.Config{
		BatchSize:  c.BatchSize,
		InChannels: c.InChannels,
		NumClasses: c.NumClasses,
		Height:     c.Height,
		Width:      c.Width,
		Symbolic:   c.Symbolic,
		Seed:       c.Seed,
	}
}

// Name returns the registry name the model was built from.
func (m *Model) Name() string { return m.name }

// NumParams returns the number of trainable scalars.
func (m *Model) NumParams() int { return m.net.Graph.NumParamElements() }

// InputSize returns the network's input grid (height, width).
func (m *Model) InputSize() (h, w int) {
	return m.net.Images.Shape[2], m.net.Images.Shape[3]
}

// SaveCheckpoint writes the model's parameters to path as a weights-only
// checkpoint: a CRC-guarded training snapshot (the format WithCheckpointEvery
// writes) carrying the weights and nothing else — step 0, zero ranks, no
// optimizer or data-stream state. InspectCheckpoint, LoadCheckpoint,
// WithInitCheckpoint and Fleet.SwapCheckpoint all read it; WithResume
// refuses it with ErrCheckpointRankMismatch, since there is no run to
// continue.
func (m *Model) SaveCheckpoint(path string) error {
	params, err := models.CaptureParamsInto(m.net.Graph, nil)
	if err != nil {
		return err
	}
	return models.SaveSnapshotFile(path, &models.TrainState{Params: params})
}

// LoadCheckpoint restores the weights of the snapshot at path into this
// model: a weights-only checkpoint from SaveCheckpoint, a full training
// snapshot, or a checkpoint directory (its latest committed snapshot).
// Labels and shapes must match; an untrustworthy file fails with the typed
// ErrCheckpoint* errors and leaves the weights untouched. Any cached
// inference engine is dropped, so later Segment calls see the restored
// weights even if the load replaced parameter tensors. Do not call while a
// Server built from this model is running.
func (m *Model) LoadCheckpoint(path string) error {
	m.mu.Lock()
	m.invalidateLocked()
	m.mu.Unlock()
	return loadWeights(path, m.net.Graph)
}

// loadWeights reads and verifies the snapshot at path (a file or a
// checkpoint directory) and restores its weights into g by label and shape.
func loadWeights(path string, g *graph.Graph) error {
	st, err := models.LoadSnapshotFile(path)
	if err != nil {
		return err
	}
	return models.RestoreParams(g, st.Params)
}

// invalidateLocked drops the cached adapter and engine (caller holds mu).
func (m *Model) invalidateLocked() {
	if m.runner != nil {
		m.runner.Close()
		m.runner = nil
	}
	m.adapted = nil
}

// adapter returns the cached inference adapter, building it on first use.
func (m *Model) adapter() *infer.Network {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.adapted == nil {
		m.adapted = infer.FromModel(m.net)
	}
	return m.adapted
}

// Analyze walks the graph and returns per-kernel-category counts for one
// full training step (forward, backward, optimizer, all-reduce, and type
// conversion) at the given precision — the unit of the paper's Figs 2/3/8/9
// tables and the scaling model's input.
func (m *Model) Analyze(p Precision) *graph.Analysis {
	return graph.Analyze(m.net.Graph, graph.AnalyzeOptions{
		Precision: p, IncludeOptimizer: true,
		IncludeAllreduce: true, IncludeTypeConversion: true,
	})
}

// PaperAnalysis builds a registered network symbolically at the paper's
// 1152×768 scale and returns its full training-step analysis — the shared
// input of the Fig 2/3/8/9 tables and the weak-scaling model.
func PaperAnalysis(network string, p Precision, batch, channels int) (*graph.Analysis, error) {
	m, err := BuildModel(network, Paper, ModelConfig{
		BatchSize: batch, InChannels: channels, NumClasses: 3,
		Height: 768, Width: 1152, Symbolic: true, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	return m.Analyze(p), nil
}

// SegmentConfig controls tiled inference. The zero value is valid and
// means: tile dimensions follow the model's input window, no overlap
// margin, FP32 execution, serial (batch-1) tile execution. Field by field:
//
//   - TileH, TileW — the window size tiles are cut to; both zero → the
//     model's input window (they must match the window the model was built
//     with, so overriding them is only useful for models accepting several
//     window sizes). Negative values are rejected.
//   - Overlap — margin (pixels) discarded on interior tile edges; must be
//     at least the network's receptive-field radius for the stitched
//     output to match a monolithic pass. Default 0; negative rejected.
//   - Precision — FP32 (default, bit-identical to training kernels), FP16
//     (half-precision round-trips), or INT8 (symmetric quantized conv/GEMM
//     kernels, inference-only).
//   - MaxBatch — tiles stacked into one executor run; masks are
//     bit-identical for every value. Default 0 → 1 (the serial reference
//     path); negative rejected. Servers set their own batching instead.
type SegmentConfig struct {
	TileH, TileW int
	// Overlap is the margin (pixels) discarded on interior tile edges; it
	// must be at least the network's receptive-field radius for the
	// stitched output to match a monolithic pass.
	Overlap   int
	Precision Precision
	// MaxBatch stacks up to this many tiles into one executor run.
	MaxBatch int
}

// inferConfig resolves defaults and validates a SegmentConfig against the
// model, with field-specific errors (the internal infer layer would reject
// the same values with less context).
func (m *Model) inferConfig(cfg SegmentConfig) (infer.Config, error) {
	if cfg.TileH < 0 || cfg.TileW < 0 {
		return infer.Config{}, fmt.Errorf("exaclim: SegmentConfig tile %dx%d must not be negative", cfg.TileH, cfg.TileW)
	}
	if cfg.Overlap < 0 {
		return infer.Config{}, fmt.Errorf("exaclim: SegmentConfig.Overlap must be ≥ 0, got %d", cfg.Overlap)
	}
	if cfg.MaxBatch < 0 {
		return infer.Config{}, fmt.Errorf("exaclim: SegmentConfig.MaxBatch must be ≥ 0, got %d", cfg.MaxBatch)
	}
	h, w := m.InputSize()
	if cfg.TileH == 0 && cfg.TileW == 0 {
		cfg.TileH, cfg.TileW = h, w
	}
	if cfg.TileH != h || cfg.TileW != w {
		return infer.Config{}, fmt.Errorf("exaclim: SegmentConfig tile %dx%d does not match the model window %dx%d",
			cfg.TileH, cfg.TileW, h, w)
	}
	if 2*cfg.Overlap >= cfg.TileH || 2*cfg.Overlap >= cfg.TileW {
		return infer.Config{}, fmt.Errorf("exaclim: SegmentConfig.Overlap %d leaves no interior in a %dx%d tile",
			cfg.Overlap, cfg.TileH, cfg.TileW)
	}
	return infer.Config{
		TileH: cfg.TileH, TileW: cfg.TileW,
		Overlap: cfg.Overlap, Precision: cfg.Precision,
		MaxBatch: cfg.MaxBatch,
	}, nil
}

// Segment runs the model over a [channels, H, W] field tensor of arbitrary
// size by tiling, returning the [H, W] predicted class mask. The first
// call builds the inference engine (a loss-free inference clone of the
// network with its own executors and buffer pool); later calls with the
// same config reuse it, so steady-state segmentation allocates almost
// nothing. It is the single-shot wrapper over the serving engine — for
// concurrent traffic use NewServer.
func (m *Model) Segment(fields *tensor.Tensor, cfg SegmentConfig) (*tensor.Tensor, error) {
	icfg, err := m.inferConfig(cfg)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.runner == nil || m.runnerCfg != icfg {
		if m.adapted == nil {
			m.adapted = infer.FromModel(m.net)
		}
		if m.runner != nil {
			m.runner.Close()
		}
		r, err := infer.NewRunner(m.adapted, icfg)
		if err != nil {
			return nil, err
		}
		m.runner, m.runnerCfg = r, icfg
	}
	return m.runner.Segment(fields)
}
