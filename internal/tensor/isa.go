package tensor

import (
	"fmt"

	"repro/internal/simd"
)

// KernelISA selects the instruction set the tensor kernels execute with:
// the portable scalar kernels, or the hand-vectorized AVX2 ones (FMA GEMM
// micro-kernels, vectorized INT8/elementwise/transpose loops, F16C FP16
// conversion).
//
// Precision contract (DESIGN.md "SIMD kernels & worker pool"): every
// kernel is BIT-IDENTICAL across ISAs. GEMM and the implicit-GEMM
// convolutions have one numeric definition (see Gemm) that the scalar
// kernel reproduces with an exact float32 FMA; dot and L2Norm sum in one
// fixed order; elementwise kernels multiply and add with separate
// roundings; FP16 conversions and INT8 kernels are exact. The ISA is a
// speed choice only, so a run may resume, rescale or replay on either.
type KernelISA uint8

const (
	// ISAAuto picks the best supported ISA (AVX2 where available).
	ISAAuto KernelISA = iota
	// ISAScalar forces the portable kernels (EXACLIM_NOSIMD=1 at startup
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

// --- per-ISA GEMM geometry ------------------------------------------------
//
// The blocked path's register tile and cache blocks differ per ISA: the
// scalar micro-kernel is 4×8 (gemmMR×gemmNR in gemm.go); the AVX2 kernel
// is 6×16 — six broadcast rows against two 8-lane B columns, using 12 of
// the 16 YMM registers as accumulators.

const (
	avxMR = 6
	avxNR = 16
	// Cache blocks swept empirically on the 6×16 kernel (PR 9, CHANGES.md): of
	// {MC, KC} ∈ {60..192}×{128..384}, MC=144 KC=256 measured best on both
	// the conv-shaped and square benchmarks (one 6-row A strip = 6 KiB,
	// one 16-col B strip = 16 KiB, packed A panel ≈ 144 KiB in L2).
	avxKC = 256
	avxMC = 144
	avxNC = 2048
)

// FMAPeakProbe runs iters iterations of the synthetic FMA peak kernel —
// 12 independent 8-lane FMA chains, 192 FLOPs per iteration, the
// register-parallelism upper bound of one core — and reports whether it
// ran (false when the host lacks AVX2+FMA). Benchmarks time it to anchor
// the %peak figures in BENCH files against measured rather than nominal
// peak.
func FMAPeakProbe(iters int) bool { return fmaPeakProbeRun(iters) }
