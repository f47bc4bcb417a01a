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

// goldenSnapshots pins the SHA-256 of the final snapshot of three 6-step
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
	},
	"scalar": {
		"classic_2rank_larc_lag1":       "78d4c8f71810b30e0d805ff9c18d58698e1b06ed4b32c19e0bd744f981b47df3",
		"classic_8rank_fp16_hybrid_4x2": "f41a5faefdabadf832f5c1cdce80eb9fccea98ce62f9bcb8e909d9bc396303bf",
		"elastic_4rank_8col":            "8be7848f92196c75193b719248d5515593fc9f7cfd045ad161fc57608e7f6208",
	},
}

// TestGoldenTrajectory trains the three golden runs and compares the hash
// of each final snapshot — weights, optimizer state, loss scaler and data
// cursors — with the pinned value of the active ISA leg. arm64 compiles
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
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"classic_2rank_larc_lag1", func() Config {
			cfg := baseConfig(2, steps)
			cfg.UseLARC = true
			cfg.LARCTrust = 0.01
			cfg.GradientLag = 1
			return cfg
		}},
		{"classic_8rank_fp16_hybrid_4x2", func() Config {
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
		{"elastic_4rank_8col", func() Config {
			return elasticConfig(4, 8, steps)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.CheckpointEvery = steps
			cfg.CheckpointDir = t.TempDir()
			if _, err := Train(cfg); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(readSnap(t, cfg.CheckpointDir, steps))
			if got := hex.EncodeToString(sum[:]); got != want[tc.name] {
				t.Errorf("%s final snapshot SHA-256 %s, golden %s", isa, got, want[tc.name])
			}
		})
	}
}
