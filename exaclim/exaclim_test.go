package exaclim

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/loss"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// TestOptionsApplyToConfig checks that every functional option lands on the
// corresponding core.Config field.
func TestOptionsApplyToConfig(t *testing.T) {
	exp, err := New(
		WithNetwork("deeplab", Tiny),
		WithSyntheticData(16, 16, 12, 3),
		WithPrecision(FP16),
		WithLossScale(512),
		WithOptimizer("sgd"),
		WithLR(5e-3),
		WithLARC(0.02),
		WithGradientLag(1),
		WithWeighting("inv"),
		WithRanks(4, 2),
		WithHybridAllReduce(),
		WithControlTree(2),
		WithSteps(7),
		WithSeed(99),
		WithValidation(2),
		WithValidationEvery(3),
		WithStepComputeSeconds(0.25),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := exp.cfg
	if cfg.Precision != FP16 || cfg.LossScale != 512 {
		t.Errorf("precision/loss scale: %v/%v", cfg.Precision, cfg.LossScale)
	}
	if cfg.Optimizer != core.SGD || cfg.LR != 5e-3 {
		t.Errorf("optimizer/lr: %v/%v", cfg.Optimizer, cfg.LR)
	}
	if !cfg.UseLARC || cfg.LARCTrust != 0.02 || cfg.GradientLag != 1 {
		t.Errorf("larc/lag: %v/%v/%v", cfg.UseLARC, cfg.LARCTrust, cfg.GradientLag)
	}
	if cfg.Weighting != loss.InverseFrequency {
		t.Errorf("weighting: %v", cfg.Weighting)
	}
	if cfg.Ranks != 4 || !cfg.HybridReduce || cfg.Horovod.Radix != 2 {
		t.Errorf("ranks/hybrid/radix: %v/%v/%v", cfg.Ranks, cfg.HybridReduce, cfg.Horovod.Radix)
	}
	if cfg.Fabric == nil || cfg.Fabric.Size() != 4 || cfg.Fabric.RanksPerNode() != 2 {
		t.Errorf("fabric: %+v", cfg.Fabric)
	}
	if cfg.Steps != 7 || cfg.Seed != 99 || cfg.ValidationSize != 2 || cfg.ValidateEvery != 3 {
		t.Errorf("steps/seed/validation: %v/%v/%v/%v",
			cfg.Steps, cfg.Seed, cfg.ValidationSize, cfg.ValidateEvery)
	}
	if cfg.StepComputeSeconds != 0.25 {
		t.Errorf("step seconds: %v", cfg.StepComputeSeconds)
	}
	if cfg.Dataset == nil || cfg.Dataset.Size != 12 || cfg.Dataset.Cfg.Height != 16 {
		t.Errorf("dataset: %+v", cfg.Dataset)
	}
	if exp.model.Height != 16 || exp.model.Width != 16 || exp.model.InChannels != NumChannels {
		t.Errorf("model config did not follow dataset: %+v", exp.model)
	}
	// The network builder must build what was registered.
	net, err := cfg.BuildNet()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(net.Name, "deeplab") {
		t.Errorf("built network %q, want a deeplab", net.Name)
	}
}

func TestLRScheduleOptions(t *testing.T) {
	exp, err := New(WithLR(1e-2), WithSteps(10), WithPolynomialDecay(1e-3, 1), WithWarmup(2))
	if err != nil {
		t.Fatal(err)
	}
	sched := exp.cfg.LRSchedule
	if sched == nil {
		t.Fatal("no LR schedule built")
	}
	if sched(0) >= sched(1) || sched(1) > 1e-2 {
		t.Errorf("warmup not ramping: lr(0)=%v lr(1)=%v", sched(0), sched(1))
	}
	if lr := sched(10); math.Abs(lr-1e-3) > 1e-9 {
		t.Errorf("decayed lr = %v, want 1e-3", lr)
	}
	if _, err := New(WithPolynomialDecay(1e-3, 1), WithLRSchedule(func(int) float64 { return 1 })); err == nil {
		t.Error("schedule + poly decay should conflict")
	}
}

// TestRegistryErrors checks the "unknown name, valid: …" contract for all
// three registries.
func TestRegistryErrors(t *testing.T) {
	cases := []struct {
		opt   Option
		wants []string
	}{
		{WithNetwork("resnet", Tiny), []string{`unknown network "resnet"`, "deeplab", "tiramisu"}},
		{WithOptimizer("lamb"), []string{`unknown optimizer "lamb"`, "adam", "sgd"}},
		{WithWeighting("log"), []string{`unknown weighting "log"`, "inv", "none", "sqrt"}},
	}
	for _, c := range cases {
		_, err := New(c.opt)
		if err == nil {
			t.Fatalf("%v: no error", c.wants)
		}
		for _, w := range c.wants {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("error %q does not mention %q", err, w)
			}
		}
	}
	if names := Networks(); len(names) != 2 || names[0] != "deeplab" {
		t.Errorf("Networks() = %v", names)
	}
}

func TestBadCombinations(t *testing.T) {
	if _, err := New(WithRanks(5, 2)); err == nil {
		t.Error("ranks not divisible by gpus-per-node should fail")
	}
	if _, err := New(WithValidationEvery(2)); err == nil {
		t.Error("ValidationEvery without Validation should fail")
	}
	if _, err := New(WithFabric(simnet.Loopback(3)), WithRanks(2, 1)); err == nil {
		t.Error("fabric/ranks size mismatch should fail")
	}
	if _, err := New(WithRanks(4, 2), WithSummitFabric()); err == nil {
		t.Error("Summit fabric with 2 GPUs per node should fail")
	}
}

// TestQuickstartSmokeTrain runs the Quickstart preset briefly and expects a
// falling loss plus validation metrics.
func TestQuickstartSmokeTrain(t *testing.T) {
	exp, err := New(append(Quickstart(), WithSteps(20))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 20 {
		t.Fatalf("history length %d, want 20", len(res.History))
	}
	if !res.LossImproved(0.1) {
		t.Errorf("loss did not improve: %.3f → %.3f", res.History[0].Loss, res.FinalLoss)
	}
	if len(res.IoU) != NumClasses || res.Accuracy <= 0 {
		t.Errorf("validation missing: IoU %v accuracy %v", res.IoU, res.Accuracy)
	}
	if res.Model == nil {
		t.Fatal("no trained model on the result")
	}
	if h, w := res.Model.InputSize(); h != 24 || w != 32 {
		t.Errorf("model input %dx%d", h, w)
	}
}

// TestSummitScalePreset resolves and briefly runs the paper's DeepLabv3+
// configuration at one Summit node.
func TestSummitScalePreset(t *testing.T) {
	exp, err := New(append(SummitScale(6), WithSteps(4), WithValidation(0))...)
	if err != nil {
		t.Fatal(err)
	}
	if exp.cfg.Precision != FP16 || !exp.cfg.HybridReduce || exp.cfg.GradientLag != 1 {
		t.Fatalf("preset lost paper settings: %+v", exp.cfg)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 4 || math.IsNaN(res.FinalLoss) {
		t.Errorf("history %d final %v", len(res.History), res.FinalLoss)
	}
	if _, err := New(SummitScale(8)...); err == nil {
		t.Error("SummitScale(8) is not a whole number of Summit nodes; want error")
	}
}

// TestObserverStreams checks that observers see every step and validation
// pass, in order, matching the final history.
func TestObserverStreams(t *testing.T) {
	var steps []StepStat
	var vals []ValStat
	exp, err := New(
		WithSyntheticData(16, 16, 8, 5),
		WithRanks(2, 1),
		WithSteps(6),
		WithValidation(2),
		WithValidationEvery(3),
		WithObserver(ObserverFuncs{
			Step:       func(s StepStat) { steps = append(steps, s) },
			Validation: func(v ValStat) { vals = append(vals, v) },
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(res.History) {
		t.Fatalf("observer saw %d steps, history has %d", len(steps), len(res.History))
	}
	for i := range steps {
		if steps[i] != res.History[i] {
			t.Fatalf("step %d: observer %+v != history %+v", i, steps[i], res.History[i])
		}
	}
	if len(vals) != len(res.ValHistory) || len(vals) != 2 {
		t.Fatalf("observer saw %d validations, history has %d, want 2", len(vals), len(res.ValHistory))
	}
}

// TestContextCancellation cancels mid-run and expects a prompt, clean exit
// with the partial history.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const stopAfter = 3
	exp, err := New(
		WithSyntheticData(16, 16, 8, 5),
		WithRanks(4, 2), // multiple ranks: cancellation must not deadlock collectives
		WithSteps(10_000),
		WithObserver(ObserverFuncs{Step: func(s StepStat) {
			if s.Step == stopAfter {
				cancel()
			}
		}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if len(res.History) <= stopAfter || len(res.History) > stopAfter+3 {
		t.Errorf("partial history has %d steps, want just past %d", len(res.History), stopAfter)
	}
	if res.FinalLoss == 0 || math.IsNaN(res.FinalLoss) {
		t.Errorf("partial FinalLoss = %v", res.FinalLoss)
	}
}

// TestCheckpointRoundtrip trains, checkpoints, restores into a replica
// built with a different weight seed, and expects identical predictions.
func TestCheckpointRoundtrip(t *testing.T) {
	exp, err := New(append(Quickstart(), WithSteps(10), WithValidation(0))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := res.Model.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	restored, err := BuildModel("tiramisu", Tiny, ModelConfig{Height: 24, Width: 32, Seed: 777})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	sample := exp.Dataset().Sample(0)
	a, err := res.Model.Segment(sample.Fields, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Segment(sample.Fields, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range a.Data() {
		if b.Data()[i] != v {
			t.Fatalf("restored model diverged at pixel %d", i)
		}
	}

	// Resume training from the checkpoint through the option.
	resumed, err := New(append(Quickstart(),
		WithSteps(5), WithValidation(0), WithInitCheckpoint(path), WithSeed(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSymbolicAnalysis builds the paper-exact network symbolically and
// checks the analysis is at paper scale.
func TestSymbolicAnalysis(t *testing.T) {
	m, err := BuildModel("deeplab", Paper, ModelConfig{
		BatchSize: 2, InChannels: 16, Height: 768, Width: 1152, Symbolic: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := m.Analyze(FP16)
	if tf := a.FLOPsPerSample() / 1e12; tf < 5 || tf > 40 {
		t.Errorf("DeepLabv3+ FLOPs/sample = %.2f TF, want paper-scale (~14)", tf)
	}
	if m.NumParams() < 1e6 {
		t.Errorf("paper DeepLab has %d params, want millions", m.NumParams())
	}
	if _, err := New(WithModelConfig(ModelConfig{Symbolic: true})); err == nil {
		t.Error("training a symbolic model should fail at New")
	}
}

// TestWorkspaceOptions covers the kernel-worker option plus the
// allocation/reuse counters on Result and StepStat.
func TestWorkspaceOptions(t *testing.T) {
	if _, err := New(WithKernelWorkers(0)); err == nil {
		t.Fatal("WithKernelWorkers(0) must be rejected")
	}

	exp, err := New(
		WithSyntheticData(16, 16, 8, 3),
		WithSteps(3),
		WithKernelWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if exp.cfg.KernelWorkers != 2 {
		t.Fatalf("kernel workers: %d", exp.cfg.KernelWorkers)
	}

	// The workspace pool: counters must move, and steady state must show
	// reuse on the step records.
	var last StepStat
	exp2, err := New(
		WithSyntheticData(16, 16, 8, 3),
		WithSteps(4),
		WithObserver(ObserverFuncs{Step: func(s StepStat) { last = s }}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := exp2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Memory.Requests == 0 || res2.Memory.Reuses == 0 {
		t.Fatalf("the workspace pool must report traffic, got %+v", res2.Memory)
	}
	if res2.Memory.Allocs+res2.Memory.Reuses != res2.Memory.Requests {
		t.Fatalf("counters inconsistent: %+v", res2.Memory)
	}
	if last.PoolReuses == 0 {
		t.Fatalf("final StepStat carries no reuse counter: %+v", last)
	}
	if last.PoolAllocs >= last.PoolReuses {
		t.Fatalf("steady state should reuse more than it allocates: %+v", last)
	}
}

// TestKernelISAOption covers ISA pinning: invalid names are rejected at
// New, "scalar" runs force the reference kernels, and the prior ISA is
// restored after the run.
func TestKernelISAOption(t *testing.T) {
	if _, err := New(WithKernelISA("sse9")); err == nil {
		t.Fatal("WithKernelISA(\"sse9\") must be rejected")
	}

	before := tensor.ActiveISA()
	exp, err := New(
		WithSyntheticData(16, 16, 8, 3),
		WithSteps(2),
		WithKernelISA("scalar"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if exp.cfg.KernelISA != "scalar" {
		t.Fatalf("cfg.KernelISA = %q, want scalar", exp.cfg.KernelISA)
	}
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := tensor.ActiveISA(); after != before {
		t.Fatalf("ISA not restored after run: before %v, after %v", before, after)
	}
}
