// Package core assembles the paper's training system: synchronous
// data-parallel training of a segmentation network across mpi ranks, with
// per-rank graph replicas, Horovod-negotiated gradient all-reduces (flat or
// hierarchical control plane, hybrid or flat reduction), LARC, gradient
// lag, mixed-precision loss scaling, the weighted pixel loss, and IoU
// evaluation. Each rank is a goroutine; payloads move for real and time
// accrues on the virtual clocks, so convergence experiments (Fig 6/7 and
// the Section V-B ablations) run end to end on one CPU.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"

	"repro/internal/allreduce"
	"repro/internal/climate"
	"repro/internal/easgd"
	"repro/internal/graph"
	"repro/internal/horovod"
	"repro/internal/hpfloat"
	"repro/internal/loss"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/opt"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// OptimizerKind selects the base optimizer.
type OptimizerKind int

const (
	// SGD with momentum 0.9.
	SGD OptimizerKind = iota
	// Adam, the paper's Tiramisu optimizer.
	Adam
)

// Config describes one training run.
type Config struct {
	// BuildNet constructs a rank's model replica. It is called once per
	// rank with the shared weight seed, so all replicas initialize
	// identically (the data-parallel invariant).
	BuildNet func() (*models.Network, error)

	Precision graph.Precision
	LossScale float64 // FP16 static loss scale (0 → dynamic default)

	Optimizer   OptimizerKind
	LR          float64
	UseLARC     bool
	LARCTrust   float64
	GradientLag int
	// LRSchedule, when set, overrides the learning rate before each step
	// (e.g. opt.PolynomialDecay or opt.LinearWarmup around it). LR is then
	// only the initial rate.
	LRSchedule func(step int) float64

	Weighting loss.Weighting
	Dataset   *climate.Dataset
	Channels  []int // input channel subset (nil = all 16)

	Ranks        int
	Fabric       simnet.Fabric // nil → loopback fabric of Ranks
	Horovod      horovod.Config
	HybridReduce bool
	// FusionBufferBytes caps one fused all-reduce bucket of the exchange
	// (0 → horovod.DefaultFusionBufferBytes).
	FusionBufferBytes int
	// Wire selects the gradient all-reduce wire format. mpi.WireFP16
	// halves cross-node bytes (FP16 on the wire, FP32 accumulation) at a
	// bounded precision cost; default mpi.WireFP32.
	Wire           mpi.Wire
	Steps          int
	Seed           int64
	ValidationSize int // samples evaluated for IoU after training (0=skip)
	// ValidateEvery, when > 0, additionally runs the validation pass after
	// every N steps (the paper's per-epoch validation, Section VI) and
	// records the trajectory in Result.ValHistory. Requires ValidationSize.
	ValidateEvery int

	// StepComputeSeconds charges virtual GPU time per step, so loss-vs-
	// wall-time curves (Fig 6) can be drawn at paper-like scales.
	StepComputeSeconds float64

	// KernelWorkers, when > 0, caps the pool workers one tensor-kernel call
	// may fan out to for the run (process-wide; restored afterwards). 0 keeps the current
	// setting (GOMAXPROCS by default). The knob is a process global:
	// concurrent Train calls in one process share it (last setter wins), so
	// set it only when runs are serialized.
	KernelWorkers int

	// CheckpointEvery, when > 0, writes a full training-state snapshot
	// every N steps: weights, optimizer moments (including the LARC base
	// and the gradient-lag queue), the FP16 loss scaler, every rank's
	// data-stream cursor, and the step counter — everything ResumeFrom
	// needs to continue bit-exactly. Rank 0 captures at the step boundary
	// (a memcpy, with the optimizer state gathered from the ranks that own
	// it) and a background writer commits the file atomically, so the hot
	// path never waits on the disk. Requires CheckpointDir.
	CheckpointEvery int
	// CheckpointDir is the snapshot directory (created if missing).
	CheckpointDir string
	// CheckpointRetain keeps the newest N committed snapshots (0 → 3).
	CheckpointRetain int
	// CheckpointSync additionally fsyncs each snapshot before its atomic
	// rename. Commit atomicity never depends on it — rename alone covers
	// every process-level failure (preemption, walltime kill, crash); sync
	// extends the guarantee to host power loss at the cost of stalling the
	// background writer on the journal commit.
	CheckpointSync bool
	// ResumeFrom resumes training from a snapshot file written by a run
	// with the same configuration (or, given a directory, from the latest
	// committed snapshot inside it). Steps counts the whole run including
	// the snapshot's completed steps: resuming a Steps=2k run from a step-k
	// snapshot trains k more steps and lands bit-identical to never having
	// stopped. The snapshot's ranks and seed must match the configuration
	// unless ElasticResume opts into rescaling.
	ResumeFrom string

	// GlobalBatch, when > 0, decouples the global batch (data-parallel
	// sample columns per step) from the world size and makes the run
	// elastic: each rank computes a contiguous share of the
	// columns (models.ShardColumns) and gradients reduce over the canonical
	// world-size-invariant tree, so the trained trajectory depends on the
	// global batch, not on how many ranks computed it. Requires the FP32
	// wire and the flat reducer (hybrid's node-local phases are
	// world-shape-dependent by construction). 0 is the classic run: one
	// column per rank, reduced by the configured ring or hybrid reducer.
	GlobalBatch int
	// ElasticResume permits ResumeFrom at a different world size than the
	// snapshot's: the replicated state is remapped and the per-column data
	// cursors re-sharded (models.RemapTrainState). The snapshot's global
	// batch overrides GlobalBatch so the sample sequence continues exactly.
	ElasticResume bool
	// SnapshotCompact writes v3 compacted snapshots: weights byte-shuffled
	// and DEFLATEd (lossless), Adam moments 8-bit quantized (lossy; a
	// compacted resume is deterministic but not bit-exact against the
	// uninterrupted run).
	SnapshotCompact bool
	// StartClock pre-advances every rank's virtual clock (elastic restarts
	// continue on the clock where the failed attempt stopped).
	StartClock float64
	// Churn selects how an elastic run behaves across membership churn
	// (default ChurnStrict; see ChurnPolicy).
	Churn ChurnPolicy

	// Ctx, when set, is checked at every step boundary. Because ranks are
	// goroutines joined by collectives, cancellation must be a collective
	// decision: each step all ranks reduce a cancellation flag, so every
	// rank exits at the same step and none is left blocking in an
	// all-reduce. On cancellation Train returns the partial Result together
	// with the context's error.
	Ctx context.Context

	// OnStep, when set, is called from rank 0 after every training step
	// with the record that was just appended to Result.History. Callbacks
	// run synchronously on rank 0's training path and should return
	// quickly.
	OnStep func(StepStat)
	// OnValidation is the mid-training analogue of OnStep for the
	// ValidateEvery passes.
	OnValidation func(ValStat)

	// serialExchange runs the bucket-planned gradient exchange
	// synchronously after backward instead of overlapping it with the
	// backward pass. Both drivers reduce the same fusion-bucket plan and
	// train bit-identical weights; the serial one is the reference that
	// package tests compare the overlapped driver against.
	serialExchange bool
	// onOptimizerStep, when set, is called on every rank after each applied
	// optimizer step with the parameters that rank stepped and its
	// optimizer; package tests read the sharded update's work and state
	// through it.
	onOptimizerStep func(rank int, stepped []opt.Param, o opt.Stateful)
}

// StepStat is one step's record from rank 0's perspective.
type StepStat struct {
	Step        int
	Loss        float64 // mean loss across ranks
	VirtualTime float64 // rank-0 virtual clock at step end
	Skipped     bool    // FP16 overflow skip
	Last        bool    // final step of the configured run

	// OverlapFrac is the fraction of this step's exchange buckets that had
	// already been reduced when the backward pass finished — gradient
	// communication hidden behind compute. Zero under the serial exchange
	// and under EASGD churn, which has no per-step exchange.
	OverlapFrac float64

	// PoolAllocs and PoolReuses are rank 0's cumulative workspace counters:
	// buffer requests that allocated fresh memory vs. were served from the
	// pool. Steady state shows PoolReuses growing and PoolAllocs flat.
	PoolAllocs uint64
	PoolReuses uint64
}

// ValStat is one mid-training validation record (Section VI's per-epoch
// validation pass).
type ValStat struct {
	Step     int
	MeanIoU  float64
	Accuracy float64
}

// Result summarizes a run.
type Result struct {
	History      []StepStat
	ValHistory   []ValStat // populated when Config.ValidateEvery > 0
	FinalLoss    float64
	IoU          []float64 // per class; NaN where absent
	MeanIoU      float64
	Accuracy     float64
	Makespan     float64 // virtual seconds for the whole run
	SkippedSteps int
	CtlStats     horovod.Stats // rank 0's control-plane traffic
	// OverlapFrac is the mean StepStat.OverlapFrac over the run (rank 0).
	// Wire-byte accounting lives on CtlStats.WireBytes.
	OverlapFrac float64
	// PoolStats is rank 0's final workspace-pool traffic: how much of the
	// run's buffer demand was served by reuse instead of allocation.
	PoolStats tensor.PoolStats
	// Net is rank 0's model replica with its trained weights — the handle
	// callers checkpoint or run inference with. After a synchronous run all
	// replicas hold identical weights, so rank 0's stands for the model.
	Net *models.Network
	// StartStep is the first step this process trained (non-zero when the
	// run resumed from a snapshot); History covers [StartStep, Steps).
	StartStep int
	// RestoredHistory and RestoredValHistory are the convergence curves
	// carried in the resumed snapshot, covering [0, StartStep) — prepend
	// them to History/ValHistory for the full trajectory across restarts.
	// The persisted records keep only bit-stable fields, so restored
	// entries report VirtualTime (and the pool/overlap counters) as zero.
	// Empty on fresh runs.
	RestoredHistory    []StepStat
	RestoredValHistory []ValStat
	// CheckpointsWritten counts snapshots committed by this run, and
	// LastCheckpoint is the newest committed path (empty when none).
	CheckpointsWritten int
	LastCheckpoint     string
}

// classFreqCache avoids re-measuring dataset statistics across runs.
var (
	classFreqMu    sync.Mutex
	classFreqCache = map[*climate.Dataset][]float64{}
)

func classFrequencies(d *climate.Dataset) []float64 {
	classFreqMu.Lock()
	defer classFreqMu.Unlock()
	if f, ok := classFreqCache[d]; ok {
		return f
	}
	n := d.Size
	if n > 8 {
		n = 8
	}
	f := d.ClassFrequencies(n)
	classFreqCache[d] = f
	return f
}

// Train runs the configured job and returns rank 0's view of it.
func Train(cfg Config) (*Result, error) {
	if cfg.Ranks < 1 || cfg.Steps < 1 {
		return nil, fmt.Errorf("core: bad config: ranks=%d steps=%d", cfg.Ranks, cfg.Steps)
	}
	if cfg.BuildNet == nil || cfg.Dataset == nil {
		return nil, fmt.Errorf("core: BuildNet and Dataset are required")
	}
	if cfg.Fabric == nil {
		cfg.Fabric = simnet.Loopback(cfg.Ranks)
	}
	if cfg.Fabric.Size() != cfg.Ranks {
		return nil, fmt.Errorf("core: fabric size %d != ranks %d", cfg.Fabric.Size(), cfg.Ranks)
	}
	if cfg.Horovod.Radix == 0 {
		cfg.Horovod = horovod.Tree(4)
	}
	if cfg.LossScale == 0 {
		cfg.LossScale = 1024
	}

	if cfg.ElasticResume && cfg.ResumeFrom == "" {
		return nil, fmt.Errorf("core: ElasticResume requires ResumeFrom")
	}
	if cfg.StartClock < 0 {
		return nil, fmt.Errorf("core: negative StartClock %g", cfg.StartClock)
	}

	if cfg.CheckpointEvery > 0 && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("core: CheckpointEvery requires CheckpointDir")
	}
	if cfg.CheckpointEvery > 0 && cfg.ResumeFrom == "" {
		// A fresh run must not write into a directory holding another
		// run's snapshots: retention prunes by step order, so the stale
		// higher-step files would silently swallow every new checkpoint
		// (and a later resume would load the wrong run's state).
		if _, step, err := models.LatestSnapshot(cfg.CheckpointDir); err == nil {
			return nil, fmt.Errorf("core: checkpoint directory %s already holds a snapshot at step %d; resume with ResumeFrom or clear the directory",
				cfg.CheckpointDir, step)
		} else if !errors.Is(err, models.ErrNoSnapshot) && !os.IsNotExist(err) {
			return nil, err
		}
	}

	// Resume state is loaded and verified once, then shared read-only by
	// every rank: each restores the identical weights and scaler
	// (synchronous training keeps them equal across ranks), the optimizer
	// state of the parameters it owns, and fast-forwards its own
	// data-stream cursor.
	var resume *models.TrainState
	if cfg.ResumeFrom != "" {
		st, err := models.LoadSnapshotFile(cfg.ResumeFrom)
		if err != nil {
			return nil, err
		}
		if cfg.ElasticResume {
			// Rescale-on-resume: re-stamp the world size and continue the
			// snapshot's own global batch, whatever this config asked for —
			// the sample sequence belongs to the experiment, not the
			// allocation.
			if err := models.RemapTrainState(st, cfg.Ranks); err != nil {
				return nil, err
			}
			cfg.GlobalBatch = st.GlobalBatch
		} else if st.Ranks != cfg.Ranks {
			return nil, fmt.Errorf("%w: snapshot was taken at %d ranks, run configured for %d (opt in with ElasticResume to rescale)",
				models.ErrSnapshotRankMismatch, st.Ranks, cfg.Ranks)
		} else if cfg.GlobalBatch > 0 && st.GlobalBatch != cfg.GlobalBatch {
			return nil, fmt.Errorf("%w: snapshot carries a global batch of %d columns, run configured for %d",
				models.ErrSnapshotRankMismatch, st.GlobalBatch, cfg.GlobalBatch)
		}
		if st.Seed != cfg.Seed {
			return nil, fmt.Errorf("core: snapshot seed %d does not match configured seed %d; the resumed data streams would diverge",
				st.Seed, cfg.Seed)
		}
		wantCursors := cfg.Ranks
		if cfg.GlobalBatch > 0 {
			wantCursors = cfg.GlobalBatch
		}
		if len(st.Cursors) != wantCursors {
			return nil, fmt.Errorf("%w: snapshot has %d data cursors, run needs %d",
				models.ErrSnapshotRankMismatch, len(st.Cursors), wantCursors)
		}
		if st.Step >= uint64(cfg.Steps) {
			return nil, fmt.Errorf("core: snapshot is at step %d, run configured for %d total steps — nothing to resume",
				st.Step, cfg.Steps)
		}
		resume = st
	}

	// The final global batch is known only after a possible elastic resume
	// (the snapshot's value wins), so the elastic-mode constraints validate
	// here.
	if cfg.GlobalBatch > 0 {
		if cfg.HybridReduce {
			return nil, fmt.Errorf("core: elastic training requires the flat reducer (hybrid reduction is world-shape-dependent)")
		}
		if cfg.Wire != mpi.WireFP32 {
			return nil, fmt.Errorf("core: elastic training requires the FP32 wire format")
		}
		if cfg.Churn.Mode == ChurnEASGD {
			if cfg.Churn.Period < 1 || cfg.Churn.Rho <= 0 {
				return nil, fmt.Errorf("core: EASGD churn policy needs Period ≥ 1 and Rho > 0, got %+v", cfg.Churn)
			}
			if cfg.CheckpointEvery > 0 && cfg.CheckpointEvery%cfg.Churn.Period != 0 {
				return nil, fmt.Errorf("core: under EASGD churn CheckpointEvery (%d) must be a multiple of the sync Period (%d) so snapshots capture a freshly synchronized center",
					cfg.CheckpointEvery, cfg.Churn.Period)
			}
		}
	} else if cfg.Churn.Mode == ChurnEASGD {
		return nil, fmt.Errorf("core: the EASGD churn policy applies to elastic runs only (set GlobalBatch)")
	}

	if cfg.KernelWorkers > 0 {
		prev := tensor.SetParallelism(cfg.KernelWorkers)
		defer tensor.SetParallelism(prev)
	}

	weights := loss.ClassWeights(classFrequencies(cfg.Dataset), cfg.Weighting)

	res := &Result{}
	var resMu sync.Mutex
	var firstErr error

	if resume != nil {
		res.StartStep = int(resume.Step)
		res.RestoredHistory = make([]StepStat, len(resume.History))
		for i, h := range resume.History {
			res.RestoredHistory[i] = StepStat{Step: int(h.Step), Loss: h.Loss, Skipped: h.Skipped}
		}
		res.RestoredValHistory = make([]ValStat, len(resume.ValHistory))
		for i, v := range resume.ValHistory {
			res.RestoredValHistory[i] = ValStat{Step: int(v.Step), MeanIoU: v.MeanIoU, Accuracy: v.Accuracy}
		}
	}

	world := mpi.NewWorld(cfg.Fabric)
	makespan := world.Run(func(c *mpi.Comm) {
		if err := trainRank(c, cfg, weights, resume, res, &resMu); err != nil {
			resMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			resMu.Unlock()
		}
	})
	res.Makespan = makespan
	if len(res.History) > 0 {
		res.FinalLoss = res.History[len(res.History)-1].Loss
	}
	if firstErr != nil {
		if errors.Is(firstErr, context.Canceled) || errors.Is(firstErr, context.DeadlineExceeded) ||
			errors.Is(firstErr, ErrNodeFailed) {
			// Cancellation and node failure are clean collective exits: hand
			// back what the run produced so far alongside the error
			// (TrainElastic restarts from the partial result's clock).
			return res, firstErr
		}
		return nil, firstErr
	}
	return res, nil
}

// reducerFor builds the gradient reducer of a classic run.
func reducerFor(cfg Config, fabric simnet.Fabric) horovod.Reducer {
	if cfg.HybridReduce && fabric.RanksPerNode() > 1 {
		h := allreduce.NewHybrid(fabric)
		h.Wire = cfg.Wire
		return h
	}
	return allreduce.Flat{Algorithm: mpi.Ring, Wire: cfg.Wire}
}

// rankPlan is what one rank's step loop does differently between a classic
// run and an elastic one, fixed before the first step. A classic run is the
// elastic loop with one column per rank: the column id is the rank, the
// per-column accumulators are never filled, and the reducers and divisor
// are the world-size ones, so its weights, losses and clocks are those of
// ring-reduced data parallelism.
type rankPlan struct {
	// lo and hi bound the sample columns this rank computes, [lo, hi);
	// lo == hi on an idle rank (world larger than the global batch).
	lo, hi int
	// reducer sums gradients across ranks through the exchange session;
	// nil under EASGD, which has no per-step exchange.
	reducer horovod.Reducer
	// reduceLoss sums the per-rank loss in place; nil under EASGD, whose
	// history records rank 0's local column mean.
	reduceLoss func(c *mpi.Comm, buf []float32)
	// divisor turns the reduced gradient and loss sums into means.
	divisor int
}

// planRank computes rank's plan for the run; cfg.Fabric is resolved.
func planRank(cfg Config, rank int) rankPlan {
	gb := cfg.GlobalBatch
	if gb == 0 {
		return rankPlan{
			lo:         rank,
			hi:         rank + 1,
			reducer:    reducerFor(cfg, cfg.Fabric),
			reduceLoss: func(c *mpi.Comm, buf []float32) { c.Allreduce(buf, mpi.Ring) },
			divisor:    cfg.Ranks,
		}
	}
	lo, hi := models.ShardColumns(gb, cfg.Ranks, rank)
	if cfg.Churn.Mode == ChurnEASGD {
		// Each worker averages its own columns only.
		return rankPlan{lo: lo, hi: hi, divisor: max(hi-lo, 1)}
	}
	// The canonical tree's summation order depends only on which COLUMNS
	// exist, never on how many ranks carry them. Idle ranks are masked out
	// of the tree but still receive the broadcast sums, so they apply the
	// identical optimizer update. Gradient and loss both average over the
	// global batch: the gradient is a property of the columns.
	ct := &allreduce.CanonicalTree{ActiveRanks: min(gb, cfg.Ranks)}
	return rankPlan{lo: lo, hi: hi, reducer: ct, reduceLoss: ct.Reduce, divisor: gb}
}

// trainRank is one rank's run: every step computes the rank's sample
// columns, exchanges gradients (or, under EASGD, synchronizes through the
// elastic center every Period steps), applies the optimizer, and records
// the mean loss.
func trainRank(c *mpi.Comm, cfg Config, classWeights []float32,
	resume *models.TrainState, res *Result, resMu *sync.Mutex) error {

	if cfg.StartClock > 0 {
		c.Advance(cfg.StartClock)
	}
	plan := planRank(cfg, c.Rank())
	k := plan.hi - plan.lo // this rank's column count (0 = idle)
	easgdMode := cfg.Churn.Mode == ChurnEASGD
	ff, _ := cfg.Fabric.(*simnet.FaultFabric)

	net, err := cfg.BuildNet()
	if err != nil {
		return err
	}
	if resume != nil {
		if err := models.RestoreParams(net.Graph, resume.Params); err != nil {
			return err
		}
	}
	if c.Rank() == 0 {
		resMu.Lock()
		res.Net = net
		resMu.Unlock()
	}
	params := net.Graph.Params()
	paramIndex := make(map[*graph.Node]int, len(params))
	sizes := make([]int, len(params))
	for i, p := range params {
		paramIndex[p] = i
		sizes[i] = p.Shape.NumElements()
	}

	// Sharded update: this rank steps, and keeps optimizer state for, the
	// parameters [own, ownEnd) only, then the weight sync brings every
	// other owner's results. One rank owns everything; EASGD workers'
	// updates differ from each other, so each applies its own.
	sharded := c.Size() > 1 && !easgdMode
	own, ownEnd := 0, len(params)
	var bounds []int
	if sharded {
		bounds = shardBounds(sizes, c.Size())
		own, ownEnd = bounds[c.Rank()], bounds[c.Rank()+1]
	}
	owned := make([]opt.Param, ownEnd-own)
	for i, p := range params[own:ownEnd] {
		owned[i] = opt.Param{Name: p.Label, Value: p.Value}
	}

	var sess *horovod.Session
	if plan.reducer != nil {
		hvd := cfg.Horovod
		if cfg.FusionBufferBytes > 0 {
			hvd.FusionBufferBytes = cfg.FusionBufferBytes
		}
		sess = horovod.NewSession(c, plan.reducer, hvd)
		defer sess.Close()
		// The fusion-bucket plan is fixed up front from the parameter
		// shapes: identical on every rank, every step, and across the
		// serial/overlapped drivers — which is what pins the fused
		// summation order and keeps overlapped training bit-identical.
		sess.PlanBuckets(sizes)
	}
	overlapped := !cfg.serialExchange && sess != nil

	var base opt.Optimizer
	switch cfg.Optimizer {
	case Adam:
		base = opt.NewAdam(cfg.LR)
	default:
		base = opt.NewSGD(cfg.LR, 0.9, 1e-4)
	}
	if cfg.UseLARC {
		trust := cfg.LARCTrust
		if trust == 0 {
			trust = 0.01
		}
		base = opt.NewLARC(base, trust)
	}
	optimizer := opt.NewLag(base, cfg.GradientLag)

	scaler := &hpfloat.LossScaler{Scale: cfg.LossScale, GrowthInterval: 0}

	startStep := 0
	if resume != nil {
		// The optimizer composition (Lag→[LARC→]base) is rebuilt from the
		// same configuration, so the state tree reattaches kind by kind;
		// lagged gradient sets rebind to this rank's live tensors by label.
		// A sharded rank keeps only its own parameters' entries of the full
		// state, whatever world size wrote it.
		if st := resume.Opt; st != nil {
			if sharded {
				labels := make(map[string]bool, len(owned))
				for _, p := range owned {
					labels[p.Name] = true
				}
				st = ownedState(st, labels)
			}
			if err := optimizer.RestoreState(st, owned); err != nil {
				return err
			}
		}
		if resume.Scaler != nil {
			scaler.RestoreState(*resume.Scaler)
		}
		startStep = int(resume.Step)
	}

	// One prefetcher per owned column, generating samples on its own
	// goroutine (double-buffered, bounded) so data generation overlaps the
	// training step. Column c replays the deterministic index stream of
	// (seed, c), so the global sample sequence is a property of the global
	// batch alone and survives every resharding.
	trainIdx := cfg.Dataset.Indices(climate.Train)
	if len(trainIdx) == 0 {
		return fmt.Errorf("core: dataset has no training samples")
	}
	pfs := make([]*climate.Prefetcher, k)
	for j := range pfs {
		col := plan.lo + j
		var cursor uint64
		if resume != nil {
			cursor = resume.Cursors[col]
		}
		pf := climate.NewPrefetcherAt(cfg.Dataset, trainIdx, cfg.Seed, col, 2, cursor)
		defer pf.Stop()
		pfs[j] = pf
	}

	// Per-rank persistent workspace: one pool, one reusing executor, and
	// one set of feed tensors live across every step of the run (and the
	// validation passes). When the rank retires, per-op kernel caches
	// (index maps, saved statistics, masks) are dropped so the returned
	// model does not pin them.
	rw := newRankWorkspace(net)
	rw.initExchange(len(params))
	defer graph.ReleaseOpCaches(net.Graph)

	// The optimizer state a snapshot records. Sharded, rank 0 gathers every
	// owner's entries into the capture and the other ranks send theirs
	// from a recycled local capture.
	var localOpt *opt.State
	captureOpt := optimizer.CaptureStateInto
	if sharded {
		captureOpt = func(prev *opt.State) *opt.State {
			localOpt = optimizer.CaptureStateInto(localOpt)
			return gatherOptState(c, prev, localOpt)
		}
	}

	acc := newGradAccum(params)
	var lossAcc scalarAccum

	// Only a context that can actually be cancelled pays for cancellation
	// plumbing; context.Background() (Done() == nil) costs nothing. The
	// vote rides the exchange's step flag (the first bucket's flag slot),
	// so a cancellation is acted on at the end of the step whose exchange
	// carried it.
	cancellable := cfg.Ctx != nil && cfg.Ctx.Done() != nil

	skipped := 0
	if resume != nil {
		skipped = resume.Skipped
	}

	// Rank 0 owns the asynchronous snapshot writer; the other ranks hold
	// identical weights at every boundary and send it their optimizer
	// shards, so one writer covers the world.
	var snap *snapshotter
	if c.Rank() == 0 && cfg.CheckpointEvery > 0 {
		snap = newSnapshotter(cfg.CheckpointDir, cfg.CheckpointRetain, cfg.CheckpointSync)
		defer snap.stop()
	}

	// Rank 0 carries the persisted convergence curves: seeded from the
	// resumed snapshot and appended as the run records stats, so every
	// capture persists the full [0, step+1) trajectory, not just this
	// process's slice.
	var histRecords []models.StepRecord
	var valRecords []models.ValRecord
	if snap != nil && resume != nil {
		histRecords = append(histRecords, resume.History...)
		valRecords = append(valRecords, resume.ValHistory...)
	}

	// EASGD churn state: a replicated center variable, per-param scratch
	// for checkpoint swaps, and one allreduce buffer sized for the largest
	// parameter. The center seeds from the (possibly restored) weights.
	var center, centerScratch [][]float32
	var syncBuf []float32
	alpha := float32(cfg.LR * cfg.Churn.Rho)
	if easgdMode {
		center = make([][]float32, len(params))
		maxN := 0
		for i, p := range params {
			center[i] = append([]float32(nil), p.Value.Data()...)
			maxN = max(maxN, p.Shape.NumElements())
		}
		syncBuf = make([]float32, maxN)
		if snap != nil {
			centerScratch = make([][]float32, len(params))
			for i, p := range params {
				centerScratch[i] = make([]float32, p.Shape.NumElements())
			}
		}
	}

	overlapSum := 0.0
	recordFinal := func() {
		if c.Rank() != 0 {
			return
		}
		resMu.Lock()
		res.SkippedSteps = skipped
		if sess != nil {
			res.CtlStats = sess.Stats()
		}
		res.PoolStats = rw.pool.Stats()
		if n := len(res.History); n > 0 {
			res.OverlapFrac = overlapSum / float64(n)
		}
		if snap != nil {
			written, last, _ := snap.stop()
			res.CheckpointsWritten = written
			res.LastCheckpoint = last
		}
		resMu.Unlock()
	}
	// exitCollective ends the run at a step boundary every rank reached
	// together: cause == nil means cancellation, otherwise the collective
	// failure (ErrNodeFailed). A failed snapshot write outranks both: an
	// operator who asked for checkpoints must hear about a stale checkpoint
	// directory now, not at recovery time.
	exitCollective := func(cause error) error {
		recordFinal()
		if snap != nil {
			if _, _, serr := snap.stop(); serr != nil {
				return serr
			}
		}
		if cause != nil {
			return cause
		}
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return err
			}
		}
		return context.Canceled
	}

	// The gradient hook is installed once and serves every column: earlier
	// columns only record what backward produced (the set is folded into
	// the accumulator after backward); the final column folds the
	// accumulated partial sums into its live gradients and hands them to
	// the exchange — straight to the exchange goroutine when overlapped, so
	// reduction of earlier buckets proceeds while backward still
	// differentiates later layers, or into the readiness order for the
	// post-backward serial exchange.
	finalMB := false
	onGrad := func(p *graph.Node, g *tensor.Tensor) {
		id := paramIndex[p]
		d := g.Data()
		rw.grads[id] = g
		rw.gradBufs[id] = d
		rw.pushed[id] = true
		if !finalMB {
			return
		}
		acc.foldInto(id, d)
		if easgdMode {
			return
		}
		if overlapped {
			sess.Push(horovod.TensorID(id), d)
		} else {
			rw.readyOrder = append(rw.readyOrder, horovod.TensorID(id))
		}
	}

	for step := startStep; step < cfg.Steps; step++ {
		if cfg.LRSchedule != nil {
			optimizer.SetLR(cfg.LRSchedule(step))
		}

		// This rank's step-flag vote: 1 to cancel, failFlagVote when its
		// node has failed.
		flag := float32(0)
		if cancellable && cfg.Ctx.Err() != nil {
			flag = 1
		}
		if ff != nil && ff.FailedAsOf(c.Rank(), step) {
			flag = failFlagVote
		}

		if easgdMode {
			// EASGD has no per-step exchange to fold the vote into, so the
			// control plane is a dedicated 1-element collective — the price
			// of detecting churn and cancellation at every boundary.
			rw.lossBuf[0] = flag
			c.Allreduce(rw.lossBuf[:1], mpi.Ring)
			if fs := rw.lossBuf[0]; fs >= failFlagVote {
				return exitCollective(ErrNodeFailed)
			} else if fs > 0 {
				return exitCollective(nil)
			}
		}

		acc.reset()
		lossAcc.reset()
		finalLoss := float32(0)
		rw.readyOrder = rw.readyOrder[:0]

		for j := 0; j < k; j++ {
			col := plan.lo + j
			finalMB = j == k-1

			sample := pfs[j].Next()
			feeds, err := rw.feedsForSample(net, sample, classWeights, cfg.Channels)
			if err != nil {
				return err
			}
			pfs[j].Recycle(sample)

			// The executor seed is a column property, so per-sample
			// scheduling randomization is world-size invariant.
			ex := rw.stepExecutor(cfg.Precision, cfg.Seed+int64(step)*31+int64(col))
			if cfg.Precision == graph.FP16 {
				ex.SetLossScale(scaler.Scale)
			}
			if finalMB && overlapped {
				// From here until Wait the comm belongs to the exchange
				// goroutine; this goroutine only computes. Earlier columns'
				// compute is charged before it takes the comm; the final
				// column's rides the backward timeline inside the exchange,
				// so its virtual cost is max(compute, staggered comm) — the
				// overlap the paper hides its all-reduces behind — instead
				// of their sum.
				if cfg.StepComputeSeconds > 0 && k > 1 {
					c.Advance(float64(k-1) * cfg.StepComputeSeconds)
				}
				sess.BeginStep(flag, cfg.StepComputeSeconds)
			}
			for i := range rw.pushed {
				rw.pushed[i] = false
			}
			ex.OnParamGrad = onGrad

			if err := ex.Forward(feeds); err != nil {
				return err
			}
			mbLoss := ex.Value(net.Loss).Data()[0]
			if err := ex.Backward(net.Loss); err != nil {
				return err
			}
			if finalMB {
				finalLoss = mbLoss
			} else {
				lossAcc.add(mbLoss)
			}

			// Missing gradients (possible under extreme FP16 underflow) still
			// need collective participation: substitute pooled zeros, in
			// every column, so the summation structure never depends on
			// which columns produced them.
			for i := range params {
				if rw.pushed[i] {
					continue
				}
				z := rw.zeroGrad(i, params[i].Shape)
				if !finalMB {
					continue
				}
				acc.foldInto(i, z)
				if easgdMode {
					continue
				}
				if overlapped {
					sess.Push(horovod.TensorID(i), z)
				} else {
					rw.readyOrder = append(rw.readyOrder, horovod.TensorID(i))
				}
			}
			if !finalMB {
				acc.add(rw.gradBufs)
			}
		}

		if sess != nil && k == 0 {
			// Idle rank (world larger than the global batch): no compute,
			// but full participation in the exchange protocol with zero
			// contributions — the canonical tree masks them out and the
			// broadcast brings back the true sums, so the idle rank applies
			// the identical optimizer update and stays a hot spare.
			if overlapped {
				sess.BeginStep(flag, 0)
			}
			for i := range params {
				z := rw.zeroGrad(i, params[i].Shape)
				if overlapped {
					sess.Push(horovod.TensorID(i), z)
				} else {
					rw.readyOrder = append(rw.readyOrder, horovod.TensorID(i))
				}
			}
		}

		overlapFrac := 0.0
		if sess != nil {
			var flagSum float32
			if overlapped {
				flagSum = sess.Wait()
				overlapFrac = sess.LastOverlap()
			} else {
				if cfg.StepComputeSeconds > 0 && k > 0 {
					c.Advance(float64(k) * cfg.StepComputeSeconds)
				}
				flagSum = sess.Exchange(rw.readyOrder, rw.gradBufs, flag)
			}
			if flagSum >= failFlagVote {
				// A node failed. The exchange above drained the step on
				// every rank; the half-applied step is discarded (no
				// optimizer update, no history entry) so the restart resumes
				// from a boundary every survivor agrees on.
				return exitCollective(ErrNodeFailed)
			}
			if flagSum > 0 {
				// Some rank voted to cancel; the reduced flag is identical
				// everywhere, so every rank exits at this same boundary.
				return exitCollective(nil)
			}
		} else if cfg.StepComputeSeconds > 0 && k > 0 {
			c.Advance(float64(k) * cfg.StepComputeSeconds)
		}

		// Fused epilogue: average, remove the loss scale, and detect
		// overflow in a single pass per gradient (the reduced values are
		// identical on all ranks, so the decision is too).
		factor := float32(1.0 / float64(plan.divisor))
		if cfg.Precision == graph.FP16 {
			factor *= float32(1 / scaler.Scale)
		}
		overflow := false
		for i := range params {
			if !tensor.ScaleAllFinite(factor, rw.gradBufs[i]) {
				overflow = true
			}
		}

		apply := true
		if easgdMode && k == 0 {
			// A stationary EASGD worker holds no columns: nothing to apply,
			// and its parameters only move at sync boundaries.
			apply = false
		} else if cfg.Precision == graph.FP16 {
			apply = scaler.Update(overflow)
		} else if overflow {
			apply = false
		}
		// Every rank holds the reduced sums and the same verdict; each steps
		// the parameters it owns (possibly none, so Adam's step count and
		// the lag queue advance everywhere), then the weight sync hands
		// every owner's results to the other ranks. A skipped step moves
		// and sends no weights.
		if apply {
			for i := range owned {
				owned[i].Grad = rw.grads[own+i]
			}
			optimizer.Step(owned)
			if sharded {
				syncWeights(c, params, bounds)
			}
			if cfg.onOptimizerStep != nil {
				cfg.onOptimizerStep(c.Rank(), owned, optimizer)
			}
		} else if !easgdMode || k > 0 {
			skipped++
		}

		// EASGD synchronization: all-reduce the pre-sync worker parameters
		// and apply the symmetric elastic update everywhere (the center is
		// replicated, so no parameter server).
		if easgdMode && (step+1)%cfg.Churn.Period == 0 {
			for i, p := range params {
				x := p.Value.Data()
				buf := syncBuf[:len(x)]
				copy(buf, x)
				c.Allreduce(buf, mpi.Ring)
				easgd.ElasticUpdate(x, center[i], buf, c.Size(), alpha)
			}
		}

		// The recorded loss is a real collective: the local fold in
		// column-tree order, then the plan's reduction across ranks, so it
		// sums in exactly the order the gradients do. EASGD workers are only
		// loosely coordinated between syncs, so the history records rank 0's
		// local column mean.
		rw.lossBuf[0] = lossAcc.fold(finalLoss)
		if plan.reduceLoss != nil {
			plan.reduceLoss(c, rw.lossBuf[:1])
		}
		meanLoss := float64(rw.lossBuf[0]) / float64(plan.divisor)

		if c.Rank() == 0 {
			overlapSum += overlapFrac
			ps := rw.pool.Stats()
			stat := StepStat{
				Step:        step,
				Loss:        meanLoss,
				VirtualTime: c.Clock(),
				Skipped:     !apply,
				Last:        step == cfg.Steps-1,
				OverlapFrac: overlapFrac,
				PoolAllocs:  ps.Misses,
				PoolReuses:  ps.Reuses(),
			}
			resMu.Lock()
			res.History = append(res.History, stat)
			resMu.Unlock()
			if snap != nil {
				histRecords = append(histRecords, models.StepRecord{
					Step:    uint64(step),
					Loss:    stat.Loss,
					Skipped: stat.Skipped,
				})
			}
			if cfg.OnStep != nil {
				cfg.OnStep(stat)
			}
		}

		// Per-epoch validation (Section VI): a collective pass all ranks
		// enter at the same steps.
		if cfg.ValidateEvery > 0 && cfg.ValidationSize > 0 && (step+1)%cfg.ValidateEvery == 0 {
			cm, err := validate(c, cfg, net, classWeights, rw)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				vstat := ValStat{
					Step:     step,
					MeanIoU:  cm.MeanIoU(),
					Accuracy: cm.PixelAccuracy(),
				}
				resMu.Lock()
				res.ValHistory = append(res.ValHistory, vstat)
				resMu.Unlock()
				if snap != nil {
					valRecords = append(valRecords, models.ValRecord{
						Step:     uint64(vstat.Step),
						MeanIoU:  vstat.MeanIoU,
						Accuracy: vstat.Accuracy,
					})
				}
				if cfg.OnValidation != nil {
					cfg.OnValidation(vstat)
				}
			}
		}

		// The capture sits after the validation pass so a boundary step's
		// ValStat lands inside its own step's snapshot. Every rank's weights
		// are identical at this boundary (validation never advances the data
		// stream or touches weights), so rank 0's stand for the world; a
		// sharded run's optimizer state is gathered from its owners. The
		// deep copy happens here; encoding and I/O happen on the writer
		// goroutine.
		boundary := cfg.CheckpointEvery > 0 && (step+1)%cfg.CheckpointEvery == 0
		if boundary && sharded && c.Rank() != 0 {
			localOpt = optimizer.CaptureStateInto(localOpt)
			sendOptShard(c, localOpt)
		}
		if snap != nil && boundary {
			if easgdMode {
				// The center variable is the model under EASGD (workers are
				// exploration around it), and the checkpoint cadence is
				// validated to land on sync boundaries, where the center is
				// freshly averaged. Swap it in for the capture.
				for i, p := range params {
					d := p.Value.Data()
					copy(centerScratch[i], d)
					copy(d, center[i])
				}
			}
			err := snap.capture(uint64(step+1), cfg, net, captureOpt, scaler, skipped,
				histRecords, valRecords)
			if easgdMode {
				for i, p := range params {
					copy(p.Value.Data(), centerScratch[i])
				}
			}
			if err != nil {
				return err
			}
		}
	}

	recordFinal()
	if snap != nil {
		// A failed snapshot write is a training failure: an operator who
		// asked for checkpoints must not discover at preemption time that
		// none were committed.
		if _, _, err := snap.stop(); err != nil {
			return err
		}
	}

	// Distributed validation: each rank evaluates a slice, confusion
	// matrices merge by all-reducing the counts.
	if cfg.ValidationSize > 0 {
		cm, err := validate(c, cfg, net, classWeights, rw)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			resMu.Lock()
			res.IoU = make([]float64, climate.NumClasses)
			for cls := 0; cls < climate.NumClasses; cls++ {
				res.IoU[cls] = cm.IoU(cls)
			}
			res.MeanIoU = cm.MeanIoU()
			res.Accuracy = cm.PixelAccuracy()
			resMu.Unlock()
		}
	}
	return nil
}

// validate runs inference over the validation split, sliced across ranks,
// reusing the rank's persistent workspace for feeds and execution.
func validate(c *mpi.Comm, cfg Config, net *models.Network, classWeights []float32, rw *rankWorkspace) (*metrics.ConfusionMatrix, error) {
	valIdx := cfg.Dataset.Indices(climate.Validation)
	if len(valIdx) > cfg.ValidationSize {
		valIdx = valIdx[:cfg.ValidationSize]
	}
	cm := metrics.NewConfusionMatrix(climate.NumClasses)
	for i := c.Rank(); i < len(valIdx); i += c.Size() {
		sample := cfg.Dataset.Sample(valIdx[i])
		feeds, err := rw.feedsForSample(net, sample, classWeights, cfg.Channels)
		if err != nil {
			return nil, err
		}
		ex := rw.stepExecutor(cfg.Precision, 1)
		if err := ex.Forward(feeds); err != nil {
			return nil, err
		}
		pred := loss.Predictions(ex.Value(net.Logits))
		truth := feeds[net.Labels].Reshape(pred.Shape())
		cm.Add(truth, pred)
	}
	// Merge counts across ranks.
	flat := make([]float32, climate.NumClasses*climate.NumClasses)
	for i := 0; i < climate.NumClasses; i++ {
		for j := 0; j < climate.NumClasses; j++ {
			flat[i*climate.NumClasses+j] = float32(cm.Counts[i][j])
		}
	}
	c.Allreduce(flat, mpi.Ring)
	for i := 0; i < climate.NumClasses; i++ {
		for j := 0; j < climate.NumClasses; j++ {
			cm.Counts[i][j] = int64(flat[i*climate.NumClasses+j])
		}
	}
	return cm, nil
}

// rankWorkspace is one rank's persistent execution memory: a buffer pool, a
// reusing executor, and the feed tensors, all living across every step of
// the run instead of being reallocated per step.
type rankWorkspace struct {
	net  *models.Network
	pool *tensor.Pool
	ex   *graph.Executor

	images, labels, wmap *tensor.Tensor
	feeds                map[*graph.Node]*tensor.Tensor

	// Exchange scratch, reused every step so the hot loop allocates
	// nothing: this step's gradients by parameter index (the tensors the
	// executor delivered and their buffers), which of them the backward
	// pass produced, pooled zero substitutes for the ones it didn't, the
	// readiness order, and the 1-float collective buffer.
	grads      []*tensor.Tensor
	gradBufs   [][]float32
	pushed     []bool
	zeroGrads  []*tensor.Tensor
	readyOrder []horovod.TensorID
	lossBuf    []float32
}

func newRankWorkspace(net *models.Network) *rankWorkspace {
	return &rankWorkspace{net: net, pool: tensor.NewPool()}
}

// initExchange sizes the per-step exchange scratch for n parameters.
func (rw *rankWorkspace) initExchange(n int) {
	rw.grads = make([]*tensor.Tensor, n)
	rw.gradBufs = make([][]float32, n)
	rw.pushed = make([]bool, n)
	rw.zeroGrads = make([]*tensor.Tensor, n)
	rw.readyOrder = make([]horovod.TensorID, 0, n)
	rw.lossBuf = make([]float32, 1)
}

// zeroGrad installs the rank's reusable zero gradient for parameter i as
// this step's gradient and returns its buffer. The tensor is drawn from the
// workspace pool on first use and re-zeroed on every later one — the
// exchange may have left the previous step's sums in it.
func (rw *rankWorkspace) zeroGrad(i int, shape tensor.Shape) []float32 {
	z := rw.zeroGrads[i]
	if z == nil {
		z = tensor.FromSlice(shape, rw.pool.GetF32(shape.NumElements()))
		rw.zeroGrads[i] = z
	}
	buf := z.Data()
	clear(buf)
	rw.grads[i], rw.gradBufs[i] = z, buf
	return buf
}

// stepExecutor returns the rank's persistent pooled executor, reseeded for
// per-step scheduling randomization.
func (rw *rankWorkspace) stepExecutor(p graph.Precision, seed int64) *graph.Executor {
	if rw.ex == nil {
		rw.ex = graph.NewPooledExecutor(rw.net.Graph, p, seed, rw.pool)
	} else {
		rw.ex.Reseed(seed)
	}
	return rw.ex
}

// feedsForSample converts a climate sample into executor feeds, replicating
// the sample across the network's batch dimension and selecting channels.
// The feed tensors (and the map) are filled in place and reused across
// steps.
func (rw *rankWorkspace) feedsForSample(net *models.Network, s *climate.Sample, classWeights []float32, channels []int) (map[*graph.Node]*tensor.Tensor, error) {
	fields := s.Fields
	if channels != nil {
		fields = climate.SelectChannels(fields, channels)
	}
	is := net.Images.Shape
	batch, ch, h, w := is[0], is[1], is[2], is[3]
	fs := fields.Shape()
	if fs[0] != ch || fs[1] != h || fs[2] != w {
		return nil, fmt.Errorf("core: sample %v does not match network input %v", fs, is)
	}
	if rw.images == nil {
		rw.images = tensor.New(is)
		rw.labels = tensor.New(tensor.Shape{batch, h, w})
		rw.wmap = tensor.New(tensor.Shape{batch, h, w})
		rw.feeds = map[*graph.Node]*tensor.Tensor{
			net.Images:  rw.images,
			net.Labels:  rw.labels,
			net.Weights: rw.wmap,
		}
	}
	for b := 0; b < batch; b++ {
		copy(rw.images.Data()[b*ch*h*w:], fields.Data())
		copy(rw.labels.Data()[b*h*w:], s.Labels.Data())
	}
	loss.WeightMapInto(rw.labels, classWeights, rw.wmap)
	return rw.feeds, nil
}

// SmoothedLoss returns a moving average over the loss history with the
// given window — the paper's Fig 6 uses a 10-step window.
func SmoothedLoss(history []StepStat, window int) []float64 {
	out := make([]float64, len(history))
	for i := range history {
		lo := i - window + 1
		if lo < 0 {
			lo = 0
		}
		var s float64
		for j := lo; j <= i; j++ {
			s += history[j].Loss
		}
		out[i] = s / float64(i-lo+1)
	}
	return out
}

// LossImproved reports whether the smoothed loss fell by at least frac
// between the first and last windows (a convergence check robust to step
// noise).
func LossImproved(history []StepStat, frac float64) bool {
	if len(history) < 4 {
		return false
	}
	sm := SmoothedLoss(history, max(2, len(history)/5))
	first, last := sm[len(sm)/5], sm[len(sm)-1]
	if math.IsNaN(last) || math.IsInf(last, 0) {
		return false
	}
	return last <= first*(1-frac)
}
