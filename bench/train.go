package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/exaclim"
	"repro/internal/simnet"
)

// trainSpec sizes one training workload. Only the dataset seed follows
// -seed; model-init and trainer seeds are constants.
type trainSpec struct {
	name      string
	network   string
	grid      int // square input, pixels per side
	samples   int
	ranks     int
	perNode   int
	warm      int     // steps excluded from every metric and counted as set-up
	ckptEvery int     // 0 = no checkpoints
	compute   float64 // virtual compute seconds charged per step (0 = none)
}

var trainOneRankSpec = trainSpec{
	name: "train_1rank", network: "tiramisu", grid: 32, samples: 24,
	ranks: 1, perNode: 1, warm: 50,
}

var trainEightRankSpec = trainSpec{
	name: "train_8rank_ckpt", network: "deeplab", grid: 16, samples: 32,
	ranks: 8, perNode: 2, warm: 20, ckptEvery: 50, compute: 200e-6,
}

var trainOneRank = workload{
	name:  trainOneRankSpec.name,
	why:   "single worker: graph/nn/tensor/opt/climate do all the work, horovod/mpi none; where a kernel or executor change must show",
	run:   trainOneRankSpec.run,
	trace: trainOneRankSpec.trace,
}

var trainEightRankCkpt = workload{
	name:  trainEightRankSpec.name,
	why:   "8 ranks with small kernels on 2 cores: exchange, mailboxes, the 8x redundant optimizer and the snapshot writer dominate",
	run:   trainEightRankSpec.run,
	trace: trainEightRankSpec.trace,
}

func (s trainSpec) warmSteps(e *env) int {
	if e.smoke {
		return 4
	}
	return s.warm
}

// fabric is the 8-rank workload's interconnect: 4 nodes of 2, NVLink-class
// links inside a node and fat-tree-class links between nodes.
func (s trainSpec) fabric() simnet.Fabric {
	if s.ranks == 1 {
		return simnet.Loopback(1)
	}
	return simnet.NewTwoLevelFabric(s.ranks/s.perNode, s.perNode,
		simnet.LinkSpec{LatencySec: 1e-6, BytesPerSec: 150e9},
		simnet.LinkSpec{LatencySec: 1.5e-6, BytesPerSec: 12.5e9})
}

func (s trainSpec) options(e *env, steps int, ckptDir string) []exaclim.Option {
	opts := []exaclim.Option{
		exaclim.WithNetwork(s.network, exaclim.Tiny),
		exaclim.WithSyntheticData(s.grid, s.grid, s.samples, e.seed),
		exaclim.WithOptimizer("adam"),
		exaclim.WithLR(3e-3),
		exaclim.WithRanks(s.ranks, s.perNode),
		exaclim.WithFabric(s.fabric()),
		exaclim.WithSeed(1),
		exaclim.WithSteps(steps),
	}
	if s.compute > 0 {
		opts = append(opts, exaclim.WithStepComputeSeconds(s.compute))
	}
	if s.ckptEvery > 0 {
		opts = append(opts,
			exaclim.WithCheckpointEvery(s.ckptEvery),
			exaclim.WithCheckpointRetain(2),
			exaclim.WithCheckpointDir(ckptDir))
	}
	return opts
}

// trainRun is one pass through the real trainer as the Observer saw it.
type trainRun struct {
	setup  time.Duration      // exaclim.New through the last warm-up step
	at     []time.Duration    // OnStep instants of the measured steps, since the end of warm-up
	stats  []exaclim.StepStat // every step, warm-up included
	warm   int
	res    *exaclim.Result
	c0, c1 counters // at the end of warm-up and at the last measured step
	done   bool     // c1 has been read and the run cancelled
}

// runTrainer trains through exaclim.New/Run. With measure == 0 it stops
// after the warm-up steps (a set-up repetition); otherwise it keeps
// stepping until measure has elapsed since the end of warm-up and then
// cancels the run, which the trainer honours at a step boundary.
func (s trainSpec) runTrainer(e *env, measure time.Duration, ckptDir string) (*trainRun, error) {
	warm := s.warmSteps(e)
	steps := warm
	if measure > 0 {
		steps = 1 << 20
	}
	run := &trainRun{warm: warm, at: make([]time.Duration, 0, 1<<14), stats: make([]exaclim.StepStat, 0, 1<<14)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t0 := time.Now()
	var warmEnd time.Time
	obs := exaclim.ObserverFuncs{Step: func(st exaclim.StepStat) {
		now := time.Now()
		run.stats = append(run.stats, st)
		switch n := len(run.stats); {
		case n < warm:
		case n == warm:
			run.setup = now.Sub(t0)
			run.c0 = readCounters()
			warmEnd = time.Now()
			run.at = append(run.at, 0)
		case !run.done:
			run.at = append(run.at, now.Sub(warmEnd))
			if now.Sub(warmEnd) >= measure {
				run.c1 = readCounters()
				run.done = true
				cancel()
			}
		}
	}}
	exp, err := exaclim.New(append(s.options(e, steps, ckptDir), exaclim.WithObserver(obs))...)
	if err != nil {
		return nil, err
	}
	res, err := exp.Run(ctx)
	if err != nil && !(measure > 0 && errors.Is(err, context.Canceled)) {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("trainer returned no result")
	}
	run.res = res
	return run, nil
}

// measured is how many steps the metrics cover: those whose OnStep fired
// after warm-up, up to and including the step that asked for cancellation
// (the trainer may finish one more before every rank has seen the vote; it
// is recorded in stats only).
func (r *trainRun) measured() int { return len(r.at) - 1 }

// losses returns the loss series of the run.
func (r *trainRun) losses() []float64 {
	out := make([]float64, len(r.stats))
	for i, st := range r.stats {
		out[i] = st.Loss
	}
	return out
}

// stepTimesMS returns the gaps between consecutive measured OnStep
// instants; checkpoint is non-nil only for steps that captured a snapshot.
func (r *trainRun) stepTimesMS(ckptEvery int) (all, atCheckpoint []float64) {
	for i := 1; i < len(r.at); i++ {
		d := ms(r.at[i] - r.at[i-1])
		all = append(all, d)
		// r.at[i] is step index warm+i−1 (0-based); it captured when
		// (index+1) is a multiple of the cadence.
		if ckptEvery > 0 && (r.warm+i)%ckptEvery == 0 {
			atCheckpoint = append(atCheckpoint, d)
		}
	}
	return all, atCheckpoint
}

// setUp runs the set-up repetitions that precede the measured run and
// returns their durations.
func (s trainSpec) setUp(e *env) ([]float64, error) {
	var setups []float64
	for i := 1; i < e.setupReps(); i++ {
		dir := filepath.Join(e.tmp, fmt.Sprintf("setup%d", i))
		r, err := s.runTrainer(e, 0, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return setups, nil
}

// checkTraining applies the training correctness checks to a run.
func (s trainSpec) checkTraining(e *env, o *outcome, r *trainRun) {
	losses := r.losses()
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			o.check(false, "loss at step %d is %v", i, l)
			break
		}
	}
	o.check(r.res.SkippedSteps == 0, "%d skipped steps", r.res.SkippedSteps)
	if !e.smoke {
		o.check(lossFell(losses) == nil, "%v", lossFell(losses))
	}
	if s.ckptEvery > 0 {
		want := len(r.res.History) / s.ckptEvery
		o.check(r.res.Checkpoints == want, "%d checkpoints committed over %d steps, want %d",
			r.res.Checkpoints, len(r.res.History), want)
		if want > 0 {
			_, err := exaclim.VerifyCheckpoint(r.res.LastCheckpoint)
			o.check(err == nil, "last checkpoint %s does not verify: %v", r.res.LastCheckpoint, err)
		}
	}
}

// lossFell is the convergence check: the mean loss of the last 20 steps is
// below 0.7 of the mean of the first 20. (Both networks reach 0.5 of it
// within 60 steps at the benchmark's sizes.)
func lossFell(losses []float64) error {
	if len(losses) < 60 {
		return fmt.Errorf("loss series of %d steps is too short to judge", len(losses))
	}
	early := mean(losses[:20])
	late := mean(losses[len(losses)-20:])
	if !(late < 0.7*early) {
		return fmt.Errorf("loss did not fall: mean of last 20 steps %.4f, of the first 20 %.4f", late, early)
	}
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func (s trainSpec) run(e *env) (*outcome, error) {
	setups, err := s.setUp(e)
	if err != nil {
		return nil, err
	}
	r, err := s.runTrainer(e, e.dur(1), filepath.Join(e.tmp, "ckpt"))
	if err != nil {
		return nil, err
	}
	setups = append(setups, r.setup.Seconds())

	o := newOutcome()
	s.checkTraining(e, o, r)
	n := r.measured()
	o.attempted = n
	o.failed = r.res.SkippedSteps
	if n < e.minSamples() {
		return nil, fmt.Errorf("%w: %d steps in %.1fs", errTooFew, n, e.seconds)
	}
	rate, spread := medianRate(r.at)
	stepMS, _ := r.stepTimesMS(0)
	o.set("setup_s", median(setups))
	o.set("ops_per_s", rate)
	o.note("ops_per_s.iqr", spread)
	o.set("tiles_per_s", rate*float64(s.ranks))
	o.note("tiles_per_s.iqr", spread*float64(s.ranks))
	o.set("p50_ms", median(stepMS))
	o.note("p50_ms.n", float64(len(stepMS)))
	// c0 and c1 are read inside the OnStep of the first and last instant
	// r.at holds, so the deltas cover exactly n steps.
	o.costPerOp(r.c0, r.c1, n)
	o.set("mem_ready_mb", r.c0.liveMB())
	return o, nil
}
