package tensor

import (
	"fmt"

	"repro/internal/simd"
)

// KernelISA selects the instruction set the tensor kernels execute with.
// The scalar kernels are the portable, bit-reproducible reference; the
// AVX2 kernels are the hand-vectorized fast path (FMA GEMM micro-kernels,
// vectorized INT8/elementwise/transpose loops, F16C FP16 conversion).
//
// Precision contract (DESIGN.md "SIMD kernels & worker pool"):
//   - FP16 conversions and all integer (INT8) kernels are BIT-IDENTICAL
//     across ISAs.
//   - Pure elementwise float kernels (Axpy, Scale, ScaleAllFinite) are
//     bit-identical too: the vector forms use mul+add, never FMA.
//   - GEMM and reductions (Dot, L2Norm) reassociate accumulation chains,
//     so results differ from scalar within ≤4·ULP per chain; within one
//     ISA they are deterministic, so resume-under-the-same-ISA stays
//     bit-exact while cross-ISA resume is tolerance-exact only.
type KernelISA uint8

const (
	// ISAAuto picks the best supported ISA (AVX2 where available).
	ISAAuto KernelISA = iota
	// ISAScalar forces the portable reference kernels, for
	// bit-reproducibility across machines (EXACLIM_NOSIMD=1 at startup
	// has the same effect).
	ISAScalar
	// ISAAVX2 requires the AVX2+FMA kernels; selecting it on hardware
	// without them is an error.
	ISAAVX2
)

// String names the ISA the way BENCH files and flags spell it.
func (i KernelISA) String() string {
	switch i {
	case ISAAuto:
		return "auto"
	case ISAScalar:
		return "scalar"
	case ISAAVX2:
		return "avx2"
	}
	return fmt.Sprintf("isa(%d)", uint8(i))
}

// ParseISA parses "auto", "scalar", or "avx2".
func ParseISA(s string) (KernelISA, error) {
	switch s {
	case "auto", "":
		return ISAAuto, nil
	case "scalar":
		return ISAScalar, nil
	case "avx2":
		return ISAAVX2, nil
	}
	return ISAAuto, fmt.Errorf("tensor: unknown kernel ISA %q (want auto, scalar, or avx2)", s)
}

// SetKernelISA pins the kernel ISA process-wide and returns the previously
// active one. ISAAuto re-enables hardware dispatch; ISAScalar forces the
// reference kernels (including hpfloat's FP16 converters, which share the
// switch); ISAAVX2 errors if the hardware lacks AVX2+FMA. The setting is a
// process global like SetParallelism: concurrent runs share it.
func SetKernelISA(isa KernelISA) (KernelISA, error) {
	prev := ActiveISA()
	switch isa {
	case ISAAuto:
		simd.SetDisabled(false)
	case ISAScalar:
		simd.SetDisabled(true)
	case ISAAVX2:
		if !simd.HasAVX2() {
			return prev, fmt.Errorf("tensor: AVX2 kernels requested but unsupported on this CPU")
		}
		simd.SetDisabled(false)
	default:
		return prev, fmt.Errorf("tensor: invalid kernel ISA %v", isa)
	}
	return prev, nil
}

// ActiveISA reports which kernel set Gemm and friends dispatch to right
// now — never ISAAuto, always the resolved choice.
func ActiveISA() KernelISA {
	if simd.UseAVX2() {
		return ISAAVX2
	}
	return ISAScalar
}

// --- per-ISA GEMM geometry and small-path crossover -----------------------
//
// The blocked path's register tile and cache blocks differ per ISA: the
// scalar micro-kernel is 4×8 (gemmMR×gemmNR in gemm.go); the AVX2 kernel
// is 6×16 — six broadcast rows against two 8-lane B columns, using 12 of
// the 16 YMM registers as accumulators.

const (
	avxMR = 6
	avxNR = 16
	// Cache blocks swept empirically on the 6×16 kernel (BENCH_9): of
	// {MC, KC} ∈ {60..192}×{128..384}, MC=144 KC=256 measured best on both
	// the conv-shaped and square benchmarks (one 6-row A strip = 6 KiB,
	// one 16-col B strip = 16 KiB, packed A panel ≈ 144 KiB in L2).
	avxKC = 256
	avxMC = 144
	avxNC = 2048
)

// Small-path crossovers, re-derived empirically per ISA with
// BenchmarkGemmCrossover. The scalar threshold keeps its historical value
// (2¹⁸ with m/k skinny guards). The AVX2 kernel amortizes its packing far
// earlier: measured on the 6×16 kernel, the blocked path already wins at
// m·n·k ≈ 1.5K for every shape except single-row products (m == 1 is a
// pure axpy; packing the whole B panel for one C row loses 2–3×), and the
// old shallow-K guard inverted — even k = 4 runs 4× faster blocked
// (m64n64k4: 19.3 vs 4.8 GFLOP/s). So the AVX2 predicate is just a low
// size floor plus the m == 1 exclusion.
var (
	gemmSmallMNKScalar = 1 << 18
	gemmSmallMNKAVX2   = 1 << 10
)

// GemmUsesSmallPath reports whether Gemm(m, n, k) dispatches to the small
// unblocked kernels instead of the packed blocked path under the ACTIVE
// ISA. ConvGemm uses it to mirror Gemm's dispatch exactly — its direct
// convolution inlines the small path, its implicit packing feeds the
// blocked one — so its results stay bit-identical to the im2col+Gemm
// formulation for every shape; the predicate must therefore always agree
// with Gemm's own dispatch.
func GemmUsesSmallPath(m, n, k int) bool {
	if ActiveISA() == ISAAVX2 {
		return m*n*k <= gemmSmallMNKAVX2 || m < 2
	}
	return m*n*k <= gemmSmallMNKScalar || m < 4*gemmMR || k < 32
}

// KernelInfo describes the active kernel configuration for bench reports.
type KernelInfo struct {
	ISA       string `json:"isa"`
	GemmMR    int    `json:"gemm_mr"`
	GemmNR    int    `json:"gemm_nr"`
	Workers   int    `json:"workers"`
	HasAVX2   bool   `json:"has_avx2"`
	HasF16C   bool   `json:"has_f16c"`
	SmallPath int    `json:"small_path_mnk"`
}

// FMAPeakProbe runs iters iterations of the synthetic FMA peak kernel —
// 12 independent 8-lane FMA chains, 192 FLOPs per iteration, the
// register-parallelism upper bound of one core — and reports whether it
// ran (false when the host lacks AVX2+FMA). Benchmarks time it to anchor
// the %peak figures in BENCH files against measured rather than nominal
// peak.
func FMAPeakProbe(iters int) bool { return fmaPeakProbeRun(iters) }

// Kernel reports the active kernel configuration.
func Kernel() KernelInfo {
	info := KernelInfo{
		ISA:       ActiveISA().String(),
		GemmMR:    gemmMR,
		GemmNR:    gemmNR,
		Workers:   Parallelism(),
		HasAVX2:   simd.HasAVX2(),
		HasF16C:   simd.HasF16C(),
		SmallPath: gemmSmallMNKScalar,
	}
	if ActiveISA() == ISAAVX2 {
		info.GemmMR, info.GemmNR = avxMR, avxNR
		info.SmallPath = gemmSmallMNKAVX2
	}
	return info
}
