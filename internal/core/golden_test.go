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
// runs, per kernel ISA leg: the AVX2 kernels associate their accumulation
// chains differently from the scalar ones, so each leg has its own
// trajectory. A kernel change that keeps every operation's bits keeps
// these hashes; one that changes floating-point association must restate
// them, deliberately.
var goldenSnapshots = map[string]map[string]string{
	"avx2": {
		"classic_2rank_larc_lag1":       "92a735f9801d0a0065599224cc34126cf6956bf025015aeb796c316153fdf685",
		"classic_8rank_fp16_hybrid_4x2": "6521a0a948a32fbc5b809c3dc271a89cb3654821b78ddc5576f7adaf5e6520d1",
		"elastic_4rank_8col":            "cac4c3529ee5aeb8e47ea3763c3c8a81a4723fc7a6877e37f216a984debc09ef",
		"elastic_8rank_4col_idle":       "f4adf56ffd9531c013a591944cfbd81701fc388aa5a5d334ce9227851b923d47",
		"easgd_4rank_period2":           "430a7ef2dcebf4733618bf6479ce21c7642d592ddee86352564288e81d91c1cd",
	},
	"scalar": {
		"classic_2rank_larc_lag1":       "78d4c8f71810b30e0d805ff9c18d58698e1b06ed4b32c19e0bd744f981b47df3",
		"classic_8rank_fp16_hybrid_4x2": "f41a5faefdabadf832f5c1cdce80eb9fccea98ce62f9bcb8e909d9bc396303bf",
		"elastic_4rank_8col":            "8be7848f92196c75193b719248d5515593fc9f7cfd045ad161fc57608e7f6208",
		"elastic_8rank_4col_idle":       "5ac9397b7258806bce102ae09060300ed438445694ce9ae780ed5a579a6d32ac",
		"easgd_4rank_period2":           "1200f8dbe483a4d3436a5854b1b2d07ea538dad5ba82ba3a308e44dcac005491",
	},
}

// TestGoldenTrajectory trains the golden runs and compares the hash of each
// final snapshot — weights, optimizer state, loss scaler and data cursors —
// with the pinned value of the active ISA leg. A run with a golden field
// must reproduce that entry's hash instead of pinning its own: the serial
// exchange is bit-identical to the overlapped one. arm64 compiles
// the scalar GEMM kernel to fused multiply-adds, so the scalar hashes hold
// on amd64 only.
func TestGoldenTrajectory(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are pinned for amd64, not %s", runtime.GOARCH)
	}
	isa := tensor.ActiveISA().String()
	want, ok := goldenSnapshots[isa]
	if !ok {
		t.Skipf("no golden hashes for kernel ISA %q", isa)
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
			cfg.Exchange = ExchangeSerial
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
			if got := hex.EncodeToString(sum[:]); got != want[golden] {
				t.Errorf("%s final snapshot SHA-256 %s, golden %s", isa, got, want[golden])
			}
		})
	}
}
