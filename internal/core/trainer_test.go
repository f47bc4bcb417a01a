package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/climate"
	"repro/internal/graph"
	"repro/internal/horovod"
	"repro/internal/loss"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/racecheck"
	"repro/internal/simnet"
)

const (
	tH, tW = 16, 16
)

func tinyDataset() *climate.Dataset {
	return climate.NewDataset(climate.DefaultGenConfig(tH, tW, 21), 24)
}

func tinyBuilder(channels int) func() (*models.Network, error) {
	return func() (*models.Network, error) {
		cfg := models.Config{
			BatchSize:  1,
			InChannels: channels,
			NumClasses: 3,
			Height:     tH,
			Width:      tW,
			Seed:       99, // shared across ranks: identical replicas
		}
		return models.BuildTiramisu(models.TinyTiramisu(cfg))
	}
}

func baseConfig(ranks, steps int) Config {
	return Config{
		BuildNet:           tinyBuilder(climate.NumChannels),
		Precision:          graph.FP32,
		Optimizer:          Adam,
		LR:                 3e-3,
		Weighting:          loss.InverseSqrtFrequency,
		Dataset:            tinyDataset(),
		Ranks:              ranks,
		Steps:              steps,
		Seed:               5,
		StepComputeSeconds: 0.5,
	}
}

func TestSingleRankTrainingReducesLoss(t *testing.T) {
	cfg := baseConfig(1, 24)
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 24 {
		t.Fatalf("history length %d", len(res.History))
	}
	first, last := res.History[0].Loss, res.FinalLoss
	t.Logf("loss: %.4f → %.4f over %d steps", first, last, cfg.Steps)
	if !LossImproved(res.History, 0.1) {
		t.Fatalf("loss did not improve ≥10%%: %.4f → %.4f", first, last)
	}
	if res.Makespan < 0.5*float64(cfg.Steps) {
		t.Fatalf("virtual makespan %.1f below charged compute", res.Makespan)
	}
}

func TestDistributedMatchesConvergence(t *testing.T) {
	// 4-rank synchronous training with the hierarchical control plane and
	// hybrid reducer must also converge (the gradients are averaged, so
	// per-step behaviour resembles a 4x batch).
	cfg := baseConfig(4, 16)
	cfg.Fabric = simnet.NewTwoLevelFabric(2, 2,
		simnet.LinkSpec{LatencySec: 1e-6, BytesPerSec: 150e9},
		simnet.LinkSpec{LatencySec: 1.5e-6, BytesPerSec: 12.5e9})
	cfg.HybridReduce = true
	cfg.Horovod = horovod.Tree(2)
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !LossImproved(res.History, 0.05) {
		t.Fatalf("distributed training did not improve: %.4f → %.4f",
			res.History[0].Loss, res.FinalLoss)
	}
	if res.CtlStats.Batches == 0 {
		t.Fatal("no collective batches recorded")
	}
}

func TestRankReplicasStayInSync(t *testing.T) {
	// Identical init + averaged gradients ⇒ every rank applies identical
	// updates. After training, an eval on the same sample must match
	// across ranks — checked indirectly: the rank-0 loss history must be
	// deterministic across repeated runs.
	cfg := baseConfig(2, 6)
	r1, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.History {
		if math.Abs(r1.History[i].Loss-r2.History[i].Loss) > 1e-6 {
			t.Fatalf("run not reproducible at step %d: %g vs %g",
				i, r1.History[i].Loss, r2.History[i].Loss)
		}
	}
}

func TestFP16TrainingWithLossScaling(t *testing.T) {
	cfg := baseConfig(2, 12)
	cfg.Precision = graph.FP16
	cfg.LossScale = 256
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !LossImproved(res.History, 0.03) {
		t.Fatalf("FP16 training did not improve: %.4f → %.4f",
			res.History[0].Loss, res.FinalLoss)
	}
	for _, h := range res.History {
		if math.IsNaN(h.Loss) || math.IsInf(h.Loss, 0) {
			t.Fatal("FP16 loss went non-finite")
		}
	}
}

func TestGradientLagConverges(t *testing.T) {
	cfg := baseConfig(2, 28)
	cfg.GradientLag = 1
	// Stale gradients tolerate a smaller step (the paper notes lag usually
	// needs hyperparameter adjustment).
	cfg.LR = 1e-3
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !LossImproved(res.History, 0.05) {
		t.Fatalf("lag-1 training did not improve: %.4f → %.4f",
			res.History[0].Loss, res.FinalLoss)
	}
}

func TestLARCTraining(t *testing.T) {
	cfg := baseConfig(1, 16)
	cfg.Optimizer = SGD
	cfg.LR = 0.5 // aggressive; LARC keeps layer updates bounded
	cfg.UseLARC = true
	cfg.LARCTrust = 0.02
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.History {
		if math.IsNaN(h.Loss) || math.IsInf(h.Loss, 0) {
			t.Fatal("LARC training diverged to non-finite loss")
		}
	}
	if !LossImproved(res.History, 0.02) {
		t.Fatalf("LARC training did not improve: %.4f → %.4f",
			res.History[0].Loss, res.FinalLoss)
	}
}

func TestValidationProducesIoU(t *testing.T) {
	cfg := baseConfig(2, 10)
	cfg.ValidationSize = 2
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IoU) != climate.NumClasses {
		t.Fatalf("IoU classes = %d", len(res.IoU))
	}
	if math.IsNaN(res.Accuracy) || res.Accuracy <= 0 || res.Accuracy > 1 {
		t.Fatalf("accuracy = %g", res.Accuracy)
	}
	// Background IoU should be decent even after brief training.
	if math.IsNaN(res.IoU[climate.ClassBackground]) || res.IoU[climate.ClassBackground] < 0.3 {
		t.Fatalf("background IoU = %g", res.IoU[climate.ClassBackground])
	}
}

func TestFourChannelSubset(t *testing.T) {
	cfg := baseConfig(1, 6)
	cfg.BuildNet = tinyBuilder(4)
	cfg.Channels = climate.PizDaintChannels
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 6 {
		t.Fatal("truncated history")
	}
}

func TestConfigValidationErrors(t *testing.T) {
	if _, err := Train(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := baseConfig(2, 4)
	cfg.Fabric = simnet.Loopback(3) // mismatched
	if _, err := Train(cfg); err == nil {
		t.Fatal("fabric/ranks mismatch accepted")
	}
	cfg = baseConfig(1, 4)
	cfg.BuildNet = func() (*models.Network, error) {
		c := models.Config{BatchSize: 1, InChannels: 2, NumClasses: 3,
			Height: tH, Width: tW, Seed: 1}
		return models.BuildTiramisu(models.TinyTiramisu(c))
	}
	if _, err := Train(cfg); err == nil {
		t.Fatal("channel mismatch between net and dataset accepted")
	}
}

func TestSmoothedLoss(t *testing.T) {
	h := []StepStat{{Loss: 4}, {Loss: 2}, {Loss: 2}, {Loss: 0}}
	sm := SmoothedLoss(h, 2)
	want := []float64{4, 3, 2, 1}
	for i := range want {
		if sm[i] != want[i] {
			t.Fatalf("smoothed = %v", sm)
		}
	}
	if LossImproved(h[:2], 0.1) {
		t.Fatal("too-short history should not report improvement")
	}
}

func TestLRScheduleIsApplied(t *testing.T) {
	// A run whose schedule zeroes the rate mid-way must still complete and
	// record its full history.
	sched := baseConfig(1, 12)
	sched.LRSchedule = func(step int) float64 {
		if step >= 4 {
			return 0
		}
		return sched.LR
	}
	res, err := Train(sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 12 {
		t.Fatalf("history %d steps, want 12", len(res.History))
	}

	// Two runs whose schedules agree over the executed steps must produce
	// bit-identical loss histories (the schedule is the only difference).
	a := baseConfig(1, 6)
	a.LRSchedule = func(step int) float64 { return a.LR }
	ra, err := Train(a)
	if err != nil {
		t.Fatal(err)
	}
	b := baseConfig(1, 6)
	b.LRSchedule = func(step int) float64 {
		if step >= 6 {
			return 0 // never reached within 6 steps
		}
		return b.LR
	}
	rb, err := Train(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra.History {
		if ra.History[i].Loss != rb.History[i].Loss {
			t.Fatalf("step %d: schedules equal on prefix but losses differ: %v vs %v",
				i, ra.History[i].Loss, rb.History[i].Loss)
		}
	}
}

func TestLRScheduleWarmupConverges(t *testing.T) {
	cfg := baseConfig(2, 16)
	decay := opt.PolynomialDecay(cfg.LR, cfg.LR/10, 16, 1)
	cfg.LRSchedule = opt.LinearWarmup(decay, 4)
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !LossImproved(res.History, 0.2) {
		t.Errorf("warmup+decay schedule failed to converge: %v → %v",
			res.History[0].Loss, res.FinalLoss)
	}
}

func TestValidateEveryRecordsTrajectory(t *testing.T) {
	cfg := baseConfig(2, 9)
	cfg.ValidationSize = 2
	cfg.ValidateEvery = 3
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ValHistory) != 3 {
		t.Fatalf("validation history %d entries, want 3", len(res.ValHistory))
	}
	wantSteps := []int{2, 5, 8}
	for i, v := range res.ValHistory {
		if v.Step != wantSteps[i] {
			t.Errorf("validation %d at step %d, want %d", i, v.Step, wantSteps[i])
		}
		if v.Accuracy < 0 || v.Accuracy > 1 {
			t.Errorf("validation %d accuracy %v outside [0,1]", i, v.Accuracy)
		}
	}
	// The final full validation must also have run.
	if len(res.IoU) == 0 {
		t.Error("final IoU missing despite ValidationSize > 0")
	}
}

func TestValidateEveryWithoutSizeIsIgnored(t *testing.T) {
	cfg := baseConfig(1, 4)
	cfg.ValidateEvery = 2 // ValidationSize unset: no mid-run validation
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ValHistory) != 0 {
		t.Errorf("got %d validation records without ValidationSize", len(res.ValHistory))
	}
}

// TestTrainStepAllocs is the whole-step allocation guard: heap objects per
// steady-state step of one pooled Tiramisu-Tiny rank through the real
// trainer (prefetcher, executor, exchange, optimizer), taken as the
// marginal cost of 80 more steps so that set-up cancels. Pinned a little
// above the measured 66 (156 before the optimizer took the gradient
// tensors the executor delivered instead of one new header per parameter,
// 239 before the kernels gated their fan-out closures, 197.5 before the
// sample generator and labeler stopped allocating scratch per sample); the
// exchange and pool guards cover their parts, this covers the sum.
func TestTrainStepAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts under the race detector describe the detector")
	}
	mallocs := func(steps int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Train(baseConfig(1, steps)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	short, long := mallocs(40), mallocs(120)
	if perStep := float64(long-short) / 80; perStep > 70 {
		t.Errorf("a steady-state training step allocates %.1f objects, want ≤ 70", perStep)
	} else {
		t.Logf("%.1f objects per steady-state step", perStep)
	}
}
