package core

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// goldenSnapshots pins the SHA-256 of the final snapshot of five 6-step
// runs. Every tensor kernel gives the same bits under the scalar and the
// AVX2 ISA, so one set of hashes serves both. A kernel change that keeps
// every operation's bits keeps these hashes; one that changes
// floating-point association must restate them, deliberately.
var goldenSnapshots = map[string]string{
	"classic_2rank_larc_lag1":       "05ad26758043a183b3406302d21e549f15fd0118dbe9bcca2a7d20ee67269342",
	"classic_8rank_fp16_hybrid_4x2": "b8a7d66c26bf4ea22e42df96be7ec549f5f8455e44147cda6a37813d01ea6d4e",
	"elastic_4rank_8col":            "659a2024b074953b19fdaf1ed912eaa12fa00242858a70e2393714d06ec47b7d",
	"elastic_8rank_4col_idle":       "ef52f884719735ca3cc6066fc43f02592173df9cd1b9a277f927121b7a38b4b9",
	"easgd_4rank_period2":           "1489edd04c2f1cf323a19b638b7ef261fd72e33d8cefaf80226a9028bd404aa5",
}

// TestGoldenTrajectory trains the golden runs and compares the hash of each
// final snapshot — weights, optimizer state, loss scaler and data cursors —
// with the pinned value, under whichever kernel ISA is active. A run with
// a golden field must reproduce that entry's hash instead of pinning its
// own: the serial exchange is bit-identical to the overlapped one. The
// GEMM kernels do not fuse on any GOARCH, but Go on arm64 may fuse the
// elementwise, batch-norm and optimizer loops, so the hashes hold on
// amd64 only.
func TestGoldenTrajectory(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are pinned for amd64, not %s", runtime.GOARCH)
	}
	const steps = 6
	larcLag := func() Config {
		cfg := baseConfig(2, steps)
		cfg.UseLARC = true
		cfg.LARCTrust = 0.01
		cfg.GradientLag = 1
		return cfg
	}
	for _, tc := range []struct {
		name   string
		cfg    func() Config
		golden string
	}{
		{name: "classic_2rank_larc_lag1", cfg: larcLag},
		{name: "classic_2rank_larc_lag1_serial", cfg: func() Config {
			cfg := larcLag()
			cfg.serialExchange = true
			return cfg
		}, golden: "classic_2rank_larc_lag1"},
		{name: "classic_8rank_fp16_hybrid_4x2", cfg: func() Config {
			cfg := baseConfig(8, steps)
			cfg.Precision = graph.FP16
			cfg.LossScale = 256
			cfg.Fabric = simnet.NewTwoLevelFabric(4, 2,
				simnet.LinkSpec{LatencySec: 1e-6, BytesPerSec: 150e9},
				simnet.LinkSpec{LatencySec: 1.5e-6, BytesPerSec: 12.5e9})
			cfg.HybridReduce = true
			cfg.Wire = mpi.WireFP16
			return cfg
		}},
		{name: "elastic_4rank_8col", cfg: func() Config {
			return elasticConfig(4, 8, steps)
		}},
		{name: "elastic_8rank_4col_idle", cfg: func() Config {
			return elasticConfig(8, 4, steps)
		}},
		{name: "easgd_4rank_period2", cfg: func() Config {
			cfg := elasticConfig(4, 8, steps)
			cfg.Churn = ChurnPolicy{Mode: ChurnEASGD, Period: 2, Rho: 0.9}
			return cfg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.CheckpointEvery = steps
			cfg.CheckpointDir = t.TempDir()
			if _, err := Train(cfg); err != nil {
				t.Fatal(err)
			}
			golden := tc.golden
			if golden == "" {
				golden = tc.name
			}
			sum := sha256.Sum256(readSnap(t, cfg.CheckpointDir, steps))
			if got := hex.EncodeToString(sum[:]); got != goldenSnapshots[golden] {
				t.Errorf("%s final snapshot SHA-256 %s, golden %s", tensor.ActiveISA(), got, goldenSnapshots[golden])
			}
		})
	}
}
