package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/simnet"
)

// Elastic training: the same synchronous data-parallel run, restated so the
// trained trajectory is a function of the GLOBAL BATCH (GlobalBatch sample
// columns per step) rather than the world size. Column c draws the index
// stream rank c of a classic run would have drawn, each rank computes a
// contiguous share of columns (models.ShardColumns), gradients combine over
// canonical world-size-invariant trees (a local balanced tree per rank,
// then allreduce.CanonicalTree across ranks), and the epilogue averages by
// the global batch. trainRank runs both: its rankPlan carries the columns,
// reducers and divisor, and a classic run is the case of one column per
// rank. The result is the determinism contract the resume tests pin: for
// power-of-two world sizes and global batches the loss trajectory and
// weights are bit-exact per global batch across reshardings; other shapes
// keep the exact global sample sequence but may differ in final bits (the
// local combine tree of a non-power-of-two column share associates
// differently).
//
// The same machinery handles mid-run node failure: a rank on a failed node
// votes a sentinel value through the exchange's flag slot, every rank
// drains the step and returns ErrNodeFailed, and TrainElastic restarts from
// the last snapshot on the surviving world at the same virtual clock.

// ErrNodeFailed reports that a simulated node failed mid-run: the step that
// carried the vote was drained collectively and discarded on every rank.
// Matched with errors.Is; Train returns it alongside the partial Result.
var ErrNodeFailed = errors.New("core: node failed mid-run")

// failFlagVote is the flag-slot value a failed rank contributes. Cancel
// votes contribute 1 each, so any reduced flag ≥ failFlagVote means at
// least one failed rank for worlds up to 1023 ranks — far past anything the
// simulator runs.
const failFlagVote = 1024

// ChurnMode selects how an elastic run behaves across membership churn.
type ChurnMode int

const (
	// ChurnStrict (the default) keeps training fully synchronous: on a node
	// failure the step is drained and discarded, and the run restarts from
	// the last snapshot at the surviving world size. Determinism is
	// preserved; the cost is losing the steps since the last checkpoint.
	ChurnStrict ChurnMode = iota
	// ChurnEASGD is the consistency escape hatch for allocations where
	// strict synchrony cannot survive repeated churn: workers run
	// independent steps on their own column shares and synchronize through
	// the elastic-averaging center variable every Period steps
	// (easgd.ElasticUpdate). Restarts are deterministic from the snapshotted
	// center but not bit-exact against an uninterrupted run.
	ChurnEASGD
)

// String names the mode.
func (m ChurnMode) String() string {
	if m == ChurnEASGD {
		return "easgd"
	}
	return "strict"
}

// ChurnPolicy configures membership-churn behaviour for elastic runs.
type ChurnPolicy struct {
	Mode ChurnMode
	// Period is the EASGD synchronization period τ (steps between elastic
	// averaging rounds). Unused under ChurnStrict.
	Period int
	// Rho is the EASGD elastic coefficient ρ; the moving rate is α = LR·ρ.
	Rho float64
}

// gradAccum combines one rank's per-column gradient sets over a balanced
// binary pairwise tree, the local half of the canonical summation order.
// It is a binary counter over gradient sets: level l holds the sum of 2^l
// columns, adding a set walks the carry chain, and folding adds the
// occupied levels (lowest first) into the final column's live gradient.
// For a power-of-two number of columns the result associates exactly like
// the same columns reduced across separate ranks by the canonical tree —
// float addition of two operands is bitwise commutative, so only the tree
// shape matters. Buffers are owned and recycled through a free list, so
// steady state allocates nothing.
type gradAccum struct {
	sizes  []int
	levels [][][]float32 // levels[l] == nil, or one buffer per parameter
	free   [][][]float32
}

func newGradAccum(params []*graph.Node) *gradAccum {
	a := &gradAccum{sizes: make([]int, len(params))}
	for i, p := range params {
		a.sizes[i] = p.Shape.NumElements()
	}
	return a
}

func (a *gradAccum) newSet() [][]float32 {
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free = a.free[:n-1]
		return s
	}
	set := make([][]float32, len(a.sizes))
	for i, n := range a.sizes {
		set[i] = make([]float32, n)
	}
	return set
}

// add folds one column's gradient set into the counter. bufs is borrowed
// (the executor will overwrite it next microbatch), so a level-0 store
// copies; carries between levels move owned buffers without copying.
func (a *gradAccum) add(bufs [][]float32) {
	carry, owned := bufs, false
	for l := 0; ; l++ {
		if l == len(a.levels) {
			a.levels = append(a.levels, nil)
		}
		if a.levels[l] == nil {
			if !owned {
				set := a.newSet()
				for p := range set {
					copy(set[p], carry[p])
				}
				carry = set
			}
			a.levels[l] = carry
			return
		}
		lv := a.levels[l]
		for p := range lv {
			dst, src := lv[p], carry[p]
			for i, v := range src {
				dst[i] += v
			}
		}
		if owned {
			a.free = append(a.free, carry)
		}
		carry, owned = lv, true
		a.levels[l] = nil
	}
}

// foldInto adds the occupied levels for one parameter into dst (the final
// column's live gradient buffer), lowest level first.
func (a *gradAccum) foldInto(param int, dst []float32) {
	for _, lv := range a.levels {
		if lv == nil {
			continue
		}
		for i, v := range lv[param] {
			dst[i] += v
		}
	}
}

// reset recycles all levels for the next step.
func (a *gradAccum) reset() {
	for l, lv := range a.levels {
		if lv != nil {
			a.free = append(a.free, lv)
			a.levels[l] = nil
		}
	}
}

// scalarAccum is gradAccum's shape twin for per-column scalar losses, so
// the recorded loss sums in exactly the order the gradients do.
type scalarAccum struct {
	levels []float32
	occ    []bool
}

func (a *scalarAccum) reset() {
	a.levels = a.levels[:0]
	a.occ = a.occ[:0]
}

func (a *scalarAccum) add(x float32) {
	for l := 0; ; l++ {
		if l == len(a.occ) {
			a.levels = append(a.levels, x)
			a.occ = append(a.occ, true)
			return
		}
		if !a.occ[l] {
			a.levels[l], a.occ[l] = x, true
			return
		}
		x = a.levels[l] + x
		a.occ[l] = false
	}
}

func (a *scalarAccum) fold(x float32) float32 {
	for l, occ := range a.occ {
		if occ {
			x += a.levels[l]
		}
	}
	return x
}

// TrainElastic is the churn-surviving driver around Train: it runs the
// elastic job and, whenever a node failure drains a step, shrinks the
// fabric to the survivors, rewinds to the latest snapshot (or to step 0
// when none was committed yet), keeps the virtual clock, and retries. The
// returned Result stitches the attempts into one continuous trajectory:
// history entries a restart re-trained replace the failed attempt's, the
// makespan is cumulative, and checkpoint counts sum.
func TrainElastic(cfg Config) (*Result, error) {
	if cfg.GlobalBatch < 1 {
		return nil, fmt.Errorf("core: TrainElastic requires GlobalBatch ≥ 1")
	}
	var agg *Result
	for restarts := 0; ; restarts++ {
		if restarts > 64 {
			return agg, fmt.Errorf("core: giving up after %d node-failure restarts: %w", restarts, ErrNodeFailed)
		}
		res, err := Train(cfg)
		if res != nil {
			agg = mergeElasticResult(agg, res)
		}
		if err == nil {
			return agg, nil
		}
		if !errors.Is(err, ErrNodeFailed) {
			if agg != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				return agg, err
			}
			return nil, err
		}
		ff, ok := cfg.Fabric.(*simnet.FaultFabric)
		if !ok {
			// Without a fault-injecting fabric there is no survivor set to
			// shrink to; surface the failure with the partial result.
			return agg, err
		}
		surv := ff.Shrink()
		if surv.Size() < 1 {
			return agg, fmt.Errorf("core: no surviving ranks after node failure: %w", ErrNodeFailed)
		}
		cfg.Fabric = surv
		cfg.Ranks = surv.Size()
		if res != nil {
			// Survivors continue on the virtual clock where the drained
			// step left them.
			cfg.StartClock = res.Makespan
		}
		cfg.ResumeFrom = ""
		cfg.ElasticResume = false
		if cfg.CheckpointDir != "" {
			if _, _, lerr := models.LatestSnapshot(cfg.CheckpointDir); lerr == nil {
				cfg.ResumeFrom = cfg.CheckpointDir
				cfg.ElasticResume = true
			}
		}
	}
}

// mergeElasticResult folds one attempt's Result into the aggregate: the
// attempt's history authoritatively covers [StartStep, …), so aggregate
// entries from there on (trained by the failed attempt past its last
// checkpoint) are superseded.
func mergeElasticResult(agg, res *Result) *Result {
	if agg == nil {
		out := *res
		return &out
	}
	merged := *res
	var hist []StepStat
	for _, h := range agg.History {
		if h.Step < res.StartStep {
			hist = append(hist, h)
		}
	}
	merged.History = append(hist, res.History...)
	var vh []ValStat
	for _, v := range agg.ValHistory {
		if v.Step < res.StartStep {
			vh = append(vh, v)
		}
	}
	merged.ValHistory = append(vh, res.ValHistory...)
	// The first attempt's restored curves (from a pre-existing resume, if
	// any) and start step describe the stitched run as a whole.
	merged.RestoredHistory = agg.RestoredHistory
	merged.RestoredValHistory = agg.RestoredValHistory
	merged.StartStep = agg.StartStep
	merged.CheckpointsWritten += agg.CheckpointsWritten
	if len(merged.History) > 0 {
		merged.FinalLoss = merged.History[len(merged.History)-1].Loss
	}
	return &merged
}
