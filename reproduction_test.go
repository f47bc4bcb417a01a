// Reproduction tests: the paper's training claims (Fig 6 and §V-B) asserted
// at Tiny scale. Every test trains the same configuration, a Tiny Tiramisu
// on 16×16 synthetic fields (dataset seed 42, model seed 7) with Adam at
// 3e-3 unless the claim changes it, on each seed of reproSeeds, and every
// assertion must hold on every seed. The seeds and step counts were fixed
// before measuring; each threshold sits outside the spread measured over
// them (see "Reproduction map" in README.md). Run them with
// `go test -run Reproduction -v .` to see the per-seed figures.
//
// The §V-B1 claim that a weighted loss beats the unweighted one on TC and
// AR IoU did not reproduce at this scale, so it has no test here; the
// README records what was measured instead.
package repro

import (
	"context"
	"math"
	"testing"

	"repro/exaclim"
)

// reproSeeds is the fixed seed set (Config.Seed: the data-sampling and
// dropout stream); the model initialisation and the dataset stay fixed.
var reproSeeds = []int64{1, 2, 3, 4, 5}

// tinyRun trains the reproduction baseline under opts, which override it,
// and returns the result.
func tinyRun(t *testing.T, seed int64, opts ...exaclim.Option) *exaclim.Result {
	t.Helper()
	base := []exaclim.Option{
		exaclim.WithNetwork("tiramisu", exaclim.Tiny),
		exaclim.WithModelConfig(exaclim.ModelConfig{Seed: 7}),
		exaclim.WithSyntheticData(16, 16, 24, 42),
		exaclim.WithOptimizer("adam"),
		exaclim.WithLR(3e-3),
		exaclim.WithWeighting("sqrt"),
		exaclim.WithSeed(seed),
	}
	exp, err := exaclim.New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Fig 6: mixed-precision training follows the FP32 loss curve.
func TestReproductionFP16TracksFP32(t *testing.T) {
	const maxRelGap = 0.005 // measured 0.00018–0.00064 on reproSeeds
	for _, seed := range reproSeeds {
		run := func(p exaclim.Precision) float64 {
			return tinyRun(t, seed, exaclim.WithPrecision(p),
				exaclim.WithRanks(4, 1), exaclim.WithSteps(14)).FinalLoss
		}
		fp32, fp16 := run(exaclim.FP32), run(exaclim.FP16)
		gap := math.Abs(fp16-fp32) / fp32
		t.Logf("seed %d: final loss FP32 %.6f FP16 %.6f, relative gap %.5f", seed, fp32, fp16, gap)
		if !(gap <= maxRelGap) {
			t.Errorf("seed %d: FP16 final loss %.6f is %.4f away from FP32's %.6f (relative), want ≤ %.4f",
				seed, fp16, gap, fp32, maxRelGap)
		}
	}
}

// Fig 6 and §V-B4: training with a gradient lag of one step still
// converges.
func TestReproductionLagOneConverges(t *testing.T) {
	const minFall = 5.0 // measured 8.1–11.6× on reproSeeds
	for _, seed := range reproSeeds {
		res := tinyRun(t, seed, exaclim.WithPrecision(exaclim.FP16), exaclim.WithGradientLag(1),
			exaclim.WithLR(1e-3), exaclim.WithRanks(4, 1), exaclim.WithSteps(14))
		first := res.History[0].Loss
		fall := first / res.FinalLoss
		t.Logf("seed %d: loss %.4f at step 0, %.4f at the end, fell %.2f×", seed, first, res.FinalLoss, fall)
		if !(fall >= minFall) {
			t.Errorf("seed %d: lag-1 loss fell %.2f× (%.4f → %.4f), want ≥ %.1f×",
				seed, fall, first, res.FinalLoss, minFall)
		}
	}
}

// §V-B2: LARC keeps an aggressive SGD learning rate stable where plain SGD
// diverges.
func TestReproductionLARCStabilisesSGD(t *testing.T) {
	for _, seed := range reproSeeds {
		run := func(opts ...exaclim.Option) *exaclim.Result {
			return tinyRun(t, seed, append([]exaclim.Option{exaclim.WithOptimizer("sgd"),
				exaclim.WithLR(0.5), exaclim.WithSteps(12)}, opts...)...)
		}
		plain, larc := run(), run(exaclim.WithLARC(0))
		first := larc.History[0].Loss
		t.Logf("seed %d: plain SGD final loss %v; SGD+LARC %.4f → %.4f", seed, plain.FinalLoss, first, larc.FinalLoss)
		if !math.IsNaN(plain.FinalLoss) && !math.IsInf(plain.FinalLoss, 0) {
			t.Errorf("seed %d: plain SGD at LR 0.5 ended finite (%.4f), want divergence", seed, plain.FinalLoss)
		}
		if math.IsNaN(larc.FinalLoss) || math.IsInf(larc.FinalLoss, 0) || !(larc.FinalLoss < first) {
			t.Errorf("seed %d: SGD+LARC ended at %v from %.4f, want finite and below the initial loss",
				seed, larc.FinalLoss, first)
		}
	}
}

// The 16-channel input beats the 4-channel Piz Daint subset on mean IoU.
func TestReproductionSixteenChannelsBeatFour(t *testing.T) {
	const minGain = 0.07 // measured 0.140–0.154 on reproSeeds
	for _, seed := range reproSeeds {
		run := func(opts ...exaclim.Option) float64 {
			return tinyRun(t, seed, append([]exaclim.Option{exaclim.WithRanks(2, 1),
				exaclim.WithSteps(25), exaclim.WithValidation(3)}, opts...)...).MeanIoU
		}
		four, sixteen := run(exaclim.WithChannels(exaclim.PizDaintChannels...)), run()
		t.Logf("seed %d: mean IoU 4 channels %.3f, 16 channels %.3f", seed, four, sixteen)
		if !(sixteen-four >= minGain) {
			t.Errorf("seed %d: 16-channel mean IoU %.3f vs 4-channel %.3f, want a gain ≥ %.2f",
				seed, sixteen, four, minGain)
		}
	}
}
