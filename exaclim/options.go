package exaclim

import (
	"fmt"

	"repro/internal/climate"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Precision selects the arithmetic. For training, FP16 enables the
// loss-scaled mixed-precision path. For serving (SegmentConfig.Precision,
// WithServePrecision), FP16 and INT8 select the reduced-precision inference
// kernel sets; INT8 is inference-only.
type Precision = graph.Precision

// Re-exported precision values, so callers need no extra import.
const (
	FP32 = graph.FP32
	FP16 = graph.FP16
	INT8 = graph.INT8
)

// Climate class and channel constants, re-exported for callers reading
// Result.IoU or assembling channel subsets.
const (
	ClassBackground = climate.ClassBackground
	ClassTC         = climate.ClassTC
	ClassAR         = climate.ClassAR
	NumClasses      = climate.NumClasses
	NumChannels     = climate.NumChannels
)

// PizDaintChannels is the 4-channel input subset of the early Piz Daint
// experiments (TMQ, PSL, U850, V850).
var PizDaintChannels = climate.PizDaintChannels

// ModelConfig sizes a network build. Zero fields take defaults: batch 1,
// all 16 input channels, 3 classes, and the experiment dataset's grid (or
// 24×32 when built standalone).
type ModelConfig struct {
	BatchSize  int
	InChannels int
	NumClasses int
	Height     int
	Width      int
	// Symbolic builds shape-only parameters — not trainable, but analyzable
	// at the paper's 1152×768×16 scale without allocating gigabytes.
	Symbolic bool
	Seed     int64
}

func (c ModelConfig) withDefaults(h, w int) ModelConfig {
	if c.BatchSize == 0 {
		c.BatchSize = 1
	}
	if c.InChannels == 0 {
		c.InChannels = climate.NumChannels
	}
	if c.NumClasses == 0 {
		c.NumClasses = climate.NumClasses
	}
	if c.Height == 0 {
		c.Height = h
	}
	if c.Width == 0 {
		c.Width = w
	}
	return c
}

// Option configures an Experiment. Options that can fail (registry
// lookups, inconsistent combinations) surface their error from New.
type Option func(*options)

type options struct {
	err error

	network string
	size    Size
	model   ModelConfig

	precision Precision
	lossScale float64

	optimizer string
	lr        float64
	larc      bool
	larcTrust float64
	lag       int

	schedule  func(step int) float64
	polyDecay bool
	polyEnd   float64
	polyPower float64
	warmup    int

	weighting string
	channels  []int

	dataset *climate.Dataset
	synth   *synthSpec

	ranks   int
	perNode int
	fabric  simnet.Fabric
	summit  bool

	hybrid      bool
	radix       int
	flatCtl     bool
	fusionBytes int
	wire        WireFormat

	steps       int
	seed        int64
	valSize     int
	valEvery    int
	stepSeconds float64

	kernelWorkers int
	kernelISA     string

	observers []Observer
	initCkpt  string

	ckptEvery  int
	ckptDir    string
	ckptRetain int
	ckptSync   bool
	resume     string

	elasticResume bool
	globalBatch   int
	compactSnaps  bool
	churn         core.ChurnPolicy
	failures      []nodeFailure
}

type nodeFailure struct{ node, atStep int }

type synthSpec struct {
	height, width, samples int
	seed                   int64
}

func defaultOptions() *options {
	return &options{
		network:   "tiramisu",
		size:      Tiny,
		precision: FP32,
		optimizer: "adam",
		lr:        3e-3,
		weighting: "sqrt",
		ranks:     1,
		perNode:   1,
		radix:     4,
		steps:     30,
		seed:      1,
	}
}

// WithNetwork selects a registered network ("tiramisu", "deeplab") at a
// size (Tiny, Paper, Original). Default: "tiramisu" at Tiny.
func WithNetwork(name string, size Size) Option {
	return func(o *options) { o.network, o.size = name, size }
}

// WithModelConfig overrides the network build parameters. Only non-zero
// fields are applied, so it composes with WithInputSize and repeated uses
// rather than silently discarding them; unset fields still take their
// defaults (see ModelConfig).
func WithModelConfig(c ModelConfig) Option {
	return func(o *options) {
		if c.BatchSize != 0 {
			o.model.BatchSize = c.BatchSize
		}
		if c.InChannels != 0 {
			o.model.InChannels = c.InChannels
		}
		if c.NumClasses != 0 {
			o.model.NumClasses = c.NumClasses
		}
		if c.Height != 0 {
			o.model.Height = c.Height
		}
		if c.Width != 0 {
			o.model.Width = c.Width
		}
		if c.Symbolic {
			o.model.Symbolic = true
		}
		if c.Seed != 0 {
			o.model.Seed = c.Seed
		}
	}
}

// WithInputSize sets the network's input grid. It normally follows the
// dataset's grid automatically; set it only to train on crops.
func WithInputSize(height, width int) Option {
	return func(o *options) { o.model.Height, o.model.Width = height, width }
}

// WithPrecision selects FP32 or FP16 (loss-scaled mixed precision) for
// training. INT8 is rejected: quantized kernels exist only on the inference
// path (use WithServePrecision or SegmentConfig.Precision).
func WithPrecision(p Precision) Option {
	return func(o *options) {
		if p == INT8 {
			o.err = fmt.Errorf("exaclim: INT8 is inference-only; WithPrecision accepts FP32 or FP16")
			return
		}
		o.precision = p
	}
}

// WithLossScale sets the FP16 static loss scale (default 1024, adapted
// dynamically on overflow).
func WithLossScale(scale float64) Option {
	return func(o *options) { o.lossScale = scale }
}

// WithOptimizer selects a registered optimizer ("adam", "sgd").
func WithOptimizer(name string) Option {
	return func(o *options) { o.optimizer = name }
}

// WithLR sets the (initial) learning rate.
func WithLR(lr float64) Option {
	return func(o *options) { o.lr = lr }
}

// WithLARC enables layer-wise adaptive rate control with the given trust
// coefficient (0 → the paper's 0.01).
func WithLARC(trust float64) Option {
	return func(o *options) { o.larc, o.larcTrust = true, trust }
}

// WithGradientLag delays gradient application by n steps, overlapping the
// all-reduce with the next forward pass (§V-B4; the paper uses lag 1).
func WithGradientLag(n int) Option {
	return func(o *options) { o.lag = n }
}

// WithLRSchedule overrides the learning rate before each step; WithLR then
// only sets the initial rate. Mutually exclusive with WithPolynomialDecay.
func WithLRSchedule(f func(step int) float64) Option {
	return func(o *options) { o.schedule = f }
}

// WithPolynomialDecay decays the learning rate from WithLR's value to end
// over the run with the given power (1 = linear).
func WithPolynomialDecay(end, power float64) Option {
	return func(o *options) { o.polyDecay, o.polyEnd, o.polyPower = true, end, power }
}

// WithWarmup ramps the learning rate linearly from 0 over the first n
// steps, composing with any schedule.
func WithWarmup(steps int) Option {
	return func(o *options) { o.warmup = steps }
}

// WithWeighting selects a registered per-pixel loss weighting ("none",
// "inv", "sqrt"). Default: "sqrt", the paper's 1/√f.
func WithWeighting(name string) Option {
	return func(o *options) { o.weighting = name }
}

// WithChannels restricts the input to a subset of the 16 climate channels
// (e.g. PizDaintChannels) and sizes the network input accordingly.
func WithChannels(channels ...int) Option {
	return func(o *options) { o.channels = channels }
}

// WithDataset trains on a caller-provided dataset instead of the default
// synthetic one.
func WithDataset(ds *climate.Dataset) Option {
	return func(o *options) { o.dataset = ds }
}

// WithSyntheticData generates a deterministic synthetic CAM5-style dataset
// of the given grid and size. The network input follows the grid unless
// WithInputSize overrides it.
func WithSyntheticData(height, width, samples int, seed int64) Option {
	return func(o *options) {
		o.synth = &synthSpec{height: height, width: width, samples: samples, seed: seed}
	}
}

// WithRanks runs data-parallel training over ranks simulated GPUs packed
// gpusPerNode to a node; ranks must divide evenly into nodes. With more
// than one GPU per node the default fabric is two-level (NVLink-class
// intra-node, fat-tree-class inter-node).
func WithRanks(ranks, gpusPerNode int) Option {
	return func(o *options) { o.ranks, o.perNode = ranks, gpusPerNode }
}

// WithFabric substitutes a custom interconnect topology. It must agree
// with WithRanks' world size.
func WithFabric(f simnet.Fabric) Option {
	return func(o *options) { o.fabric = f }
}

// WithSummitFabric models Summit's interconnect (6 GPUs per node over
// NVLink, EDR InfiniBand between nodes). Requires WithRanks(n, 6).
func WithSummitFabric() Option {
	return func(o *options) { o.summit = true }
}

// WithHybridAllReduce reduces gradients hierarchically — NVLink within a
// node, ring across node leaders — instead of one flat ring (§V-A2).
func WithHybridAllReduce() Option {
	return func(o *options) { o.hybrid = true }
}

// WithControlTree sets the radix of the hierarchical Horovod control plane
// (default 4, the paper's choice).
func WithControlTree(radix int) Option {
	return func(o *options) { o.radix = radix }
}

// WithFlatControlPlane uses the original rank-0-coordinated Horovod
// control plane — the scaling bottleneck §V-A3 removes.
func WithFlatControlPlane() Option {
	return func(o *options) { o.flatCtl = true }
}

// WithFusionBufferBytes caps the fused payload of one gradient-exchange
// bucket (default 64 KiB). Larger buckets amortize collective latency over
// more bytes; smaller ones start reducing earlier in the backward pass.
func WithFusionBufferBytes(n int) Option {
	return func(o *options) {
		if n < 4 {
			o.err = fmt.Errorf("exaclim: WithFusionBufferBytes wants n ≥ 4, got %d", n)
			return
		}
		o.fusionBytes = n
	}
}

// WireFormat selects the gradient all-reduce wire format.
type WireFormat = mpi.Wire

// Wire formats, re-exported so callers need no extra import. WireFP16
// halves the bytes the (simulated) cross-node fabric carries — gradients
// are rounded to binary16 on send and accumulated in FP32 on receive, the
// paper's mixed-precision communication datapath — at a bounded precision
// cost. Under the hybrid all-reduce only the cross-node phase converts;
// NVLink-class intra-node traffic stays FP32.
const (
	WireFP32 = mpi.WireFP32
	WireFP16 = mpi.WireFP16
)

// WithWireFormat sets the all-reduce wire format (default WireFP32).
func WithWireFormat(w WireFormat) Option {
	return func(o *options) { o.wire = w }
}

// WithSteps sets the number of training steps.
func WithSteps(n int) Option {
	return func(o *options) { o.steps = n }
}

// WithSeed sets the experiment seed (data sharding, weight init, dropout).
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithValidation evaluates IoU over n validation samples after training.
func WithValidation(n int) Option {
	return func(o *options) { o.valSize = n }
}

// WithValidationEvery additionally runs the validation pass every n steps,
// recording the trajectory in Result.ValHistory and streaming it to
// observers. Requires WithValidation.
func WithValidationEvery(n int) Option {
	return func(o *options) { o.valEvery = n }
}

// WithStepComputeSeconds charges virtual GPU time per step so loss-vs-time
// curves come out at paper-like scales.
func WithStepComputeSeconds(s float64) Option {
	return func(o *options) { o.stepSeconds = s }
}

// WithKernelWorkers caps how many pool workers one tensor kernel call
// (GEMM M blocks, im2col channels, elementwise ranges) may fan out to for
// the run. It is a ceiling, not a request: a call splits only when its own
// estimated FLOPs/bytes clear the kernel layer's fan-out gate (DESIGN.md,
// "Worker pool and fan-out gate"), so the tile-scale kernels of the Tiny
// presets run inline at any n, and results are bit-identical for every n.
// The setting is process-wide while the experiment runs and restored
// afterwards, so concurrent experiments in one process share it (last
// setter wins) — use it only when runs are serialized. n < 1 is rejected;
// omit the option entirely to keep the current setting (GOMAXPROCS at
// startup).
func WithKernelWorkers(n int) Option {
	return func(o *options) {
		if n < 1 {
			o.err = fmt.Errorf("exaclim: WithKernelWorkers wants n ≥ 1, got %d", n)
			return
		}
		o.kernelWorkers = n
	}
}

// WithKernelISA pins the tensor-kernel instruction set for the run:
// "scalar" forces the portable reference kernels (bit-reproducible across
// machines), "avx2" requires the AVX2+FMA kernels (an error surfaces from
// the run on hardware without them), and "auto" picks the best supported
// set. Like WithKernelWorkers the setting is process-wide while the
// experiment runs and restored afterwards. Bit-exact resume requires
// resuming under the same ISA the checkpoint was written under; omit the
// option to keep the current setting.
func WithKernelISA(isa string) Option {
	return func(o *options) {
		if _, err := tensor.ParseISA(isa); err != nil {
			o.err = fmt.Errorf("exaclim: WithKernelISA: %w", err)
			return
		}
		o.kernelISA = isa
	}
}

// WithObserver streams progress to obs during Run. May be given multiple
// times; observers are invoked in registration order.
func WithObserver(obs Observer) Option {
	return func(o *options) {
		if obs != nil {
			o.observers = append(o.observers, obs)
		}
	}
}

// WithInitCheckpoint initializes every rank's replica before training
// starts from the weights of a snapshot: a weights-only checkpoint written
// by Model.SaveCheckpoint, a full snapshot from WithCheckpointEvery, or a
// checkpoint directory (its latest committed snapshot). This is
// warm-starting, not resumption: only the weights are taken, and optimizer
// moments, the FP16 loss scaler, the data-stream cursors, and the step
// counter all start fresh. To continue an interrupted run exactly, use
// WithResume with a full-state snapshot instead.
func WithInitCheckpoint(path string) Option {
	return func(o *options) { o.initCkpt = path }
}

// WithCheckpointEvery writes a full training-state snapshot every n steps:
// weights, optimizer moments (Adam/SGD, LARC, the gradient-lag queue), the
// FP16 loss scaler, every rank's data-stream cursor, and the step counter.
// Rank 0 captures the state at the step boundary (a memory copy) and a
// background writer commits it atomically — ckpt-<step>.snap via temp file
// and rename — so training never waits on the disk and a crash mid-write
// cannot corrupt a committed snapshot. Requires WithCheckpointDir.
func WithCheckpointEvery(n int) Option {
	return func(o *options) {
		if n < 1 {
			o.err = fmt.Errorf("exaclim: WithCheckpointEvery wants n ≥ 1, got %d", n)
			return
		}
		o.ckptEvery = n
	}
}

// WithCheckpointDir sets the snapshot directory for WithCheckpointEvery
// (created if missing). A fresh run refuses a directory that already holds
// another run's snapshots — retention prunes by step order, so writing a
// new run under stale higher-step files would silently lose every new
// checkpoint. Resume with WithResume or clear the directory.
func WithCheckpointDir(dir string) Option {
	return func(o *options) {
		if dir == "" {
			o.err = fmt.Errorf("exaclim: WithCheckpointDir wants a non-empty path")
			return
		}
		o.ckptDir = dir
	}
}

// WithCheckpointRetain keeps the newest n committed snapshots, deleting
// older ones after each write (default 3; the newest is never deleted).
func WithCheckpointRetain(n int) Option {
	return func(o *options) {
		if n < 1 {
			o.err = fmt.Errorf("exaclim: WithCheckpointRetain wants n ≥ 1, got %d", n)
			return
		}
		o.ckptRetain = n
	}
}

// WithCheckpointSync additionally fsyncs every snapshot before its atomic
// rename. Commit atomicity never depends on this — the rename alone covers
// every process-level failure (preemption, walltime kill, crash) — but
// sync extends the guarantee to host power loss, at the cost of stalling
// the background writer on each journal commit. Off by default.
func WithCheckpointSync(enabled bool) Option {
	return func(o *options) { o.ckptSync = enabled }
}

// WithResume continues training from a full-state snapshot: path may be a
// snapshot file or a checkpoint directory (the latest committed snapshot
// inside it is used). WithSteps still counts the whole run: resuming a
// 2000-step run from a step-1000 snapshot trains 1000 more steps, and the
// result is bit-identical to never having been interrupted — weights,
// optimizer moments, and loss-scaler state included. The snapshot's rank
// count and seed must match the experiment's; mismatches fail at Run
// (ErrCheckpointRankMismatch — use WithElasticResume to rescale instead).
// Mutually exclusive with WithInitCheckpoint.
func WithResume(path string) Option {
	return func(o *options) {
		if path == "" {
			o.err = fmt.Errorf("exaclim: WithResume wants a non-empty path")
			return
		}
		o.resume = path
	}
}

// WithElasticResume is WithResume without the world-size pin: the snapshot
// may resume at any WithRanks value. Weights, optimizer moments, and the
// loss scaler are replicated state and carry over unchanged; the per-column
// data cursors re-shard so the global sample sequence is preserved exactly.
// For power-of-two world sizes and global batches the continued loss
// trajectory is bit-exact per global batch against the uninterrupted run
// (the determinism contract TestElasticResume pins); other shapes keep the
// exact data order but may differ in final bits. The snapshot's seed and
// global batch must still match the experiment's. Mutually exclusive with
// WithResume and WithInitCheckpoint.
func WithElasticResume(path string) Option {
	return func(o *options) {
		if path == "" {
			o.err = fmt.Errorf("exaclim: WithElasticResume wants a non-empty path")
			return
		}
		o.resume = path
		o.elasticResume = true
	}
}

// WithGlobalBatch trains over n data columns per step regardless of the
// world size, making the trained trajectory a function of the global batch
// alone: ranks split the columns contiguously (worlds larger than the batch
// keep the extra ranks as hot spares), gradients combine in a canonical
// world-size-invariant order, and the epilogue averages over n. This is the
// foundation WithElasticResume's rescale contract stands on. Requires the
// flat reducer and the FP32 wire format. Default 0: the classic run, one
// column per rank.
func WithGlobalBatch(n int) Option {
	return func(o *options) {
		if n < 1 {
			o.err = fmt.Errorf("exaclim: WithGlobalBatch wants n ≥ 1, got %d", n)
			return
		}
		o.globalBatch = n
	}
}

// WithSnapshotCompaction writes compacted (v3 delta) snapshots: weights are
// byte-shuffled and DEFLATEd losslessly, Adam moment slots are additionally
// range-quantized to 8-bit codes — at least 2× smaller on trained state.
// Resuming from a compacted snapshot restores weights bit-exactly; the
// dequantized moments re-adapt within a few steps, so the continuation is
// approximate rather than bit-exact. CRC framing, atomic commit, and the
// typed load errors are unchanged, and both forms load interchangeably.
func WithSnapshotCompaction(enabled bool) Option {
	return func(o *options) { o.compactSnaps = enabled }
}

// ChurnMode selects how an elastic run behaves across membership churn; see
// the re-exported modes.
type ChurnMode = core.ChurnMode

// Churn modes, re-exported so callers need no extra import.
const (
	// ChurnStrict (default): on a node failure the step drains and the run
	// restarts from the last snapshot at the surviving world size —
	// deterministic, at the cost of the steps since the last checkpoint.
	ChurnStrict = core.ChurnStrict
	// ChurnEASGD: workers train independently on their column shares and
	// synchronize through an elastic-averaging center every period steps —
	// survives churn without replaying, but restarts are only
	// deterministic-from-snapshot, not bit-exact.
	ChurnEASGD = core.ChurnEASGD
)

// WithChurnPolicy sets the membership-churn consistency mode. period and
// rho configure ChurnEASGD (the synchronization period τ and the elastic
// coefficient ρ; the moving rate is LR·ρ) and are ignored under
// ChurnStrict. ChurnEASGD implies a global batch (defaulting to the rank
// count) and requires any WithCheckpointEvery cadence to be a multiple of
// period, so snapshots capture a freshly-averaged center.
func WithChurnPolicy(mode ChurnMode, period int, rho float64) Option {
	return func(o *options) {
		if mode == ChurnEASGD && (period < 1 || rho <= 0) {
			o.err = fmt.Errorf("exaclim: WithChurnPolicy(ChurnEASGD) wants period ≥ 1 and rho > 0, got %d and %g", period, rho)
			return
		}
		o.churn = core.ChurnPolicy{Mode: mode, Period: period, Rho: rho}
	}
}

// WithNodeFailure schedules simulated node `node` to fail at training step
// `atStep`: every rank it hosts stops contributing, the in-flight step
// drains collectively on all ranks and is discarded, and the run restarts
// from the last committed snapshot (step 0 when none) on the survivors at
// the same virtual clock — the mid-run membership-churn experiment. May be
// given multiple times. Implies a global batch (defaulting to the rank
// count) so the restarted world trains the same trajectory.
func WithNodeFailure(node, atStep int) Option {
	return func(o *options) {
		if node < 0 || atStep < 0 {
			o.err = fmt.Errorf("exaclim: WithNodeFailure(%d, %d) wants node ≥ 0 and step ≥ 0", node, atStep)
			return
		}
		o.failures = append(o.failures, nodeFailure{node: node, atStep: atStep})
	}
}
