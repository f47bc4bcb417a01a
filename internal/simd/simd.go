// Package simd centralizes CPU SIMD feature detection and the process-wide
// enable/disable switch shared by every hand-vectorized kernel in the repo
// (tensor's AVX2/FMA GEMM micro-kernels, hpfloat's F16C converters, the
// vectorized elementwise paths).
//
// Detection happens once at init via CPUID/XGETBV (no cgo, no external
// modules). The kernels stay optional: every SIMD entry point has a
// portable scalar implementation with the same bits, and the switch can
// force the scalar path at runtime — `EXACLIM_NOSIMD=1` in the
// environment, or tensor.SetKernelISA programmatically — so the scalar
// kernels are exercised on AVX2 hosts too.
package simd

import (
	"os"
	"sync/atomic"
)

// Feature flags populated by the architecture-specific detector at init.
// They describe the hardware and never change after init; the runtime
// on/off decision layers the `disabled` switch on top.
var (
	hasAVX2 bool // AVX2 + FMA + OS YMM state support (the GEMM kernels)
	hasF16C bool // F16C + AVX + OS YMM state support (FP16 converters)
)

// disabled is the process-wide kill switch. It defaults to the
// EXACLIM_NOSIMD environment variable and is flipped by
// tensor.SetKernelISA.
var disabled atomic.Bool

func init() {
	detect()
	if os.Getenv("EXACLIM_NOSIMD") == "1" {
		disabled.Store(true)
	}
}

// HasAVX2 reports whether the hardware supports the AVX2+FMA kernels
// (independent of the runtime switch).
func HasAVX2() bool { return hasAVX2 }

// HasF16C reports whether the hardware supports the F16C FP16 converters
// (independent of the runtime switch).
func HasF16C() bool { return hasF16C }

// UseAVX2 reports whether the AVX2+FMA kernels should run right now:
// hardware support and the runtime switch both allow it.
func UseAVX2() bool { return hasAVX2 && !disabled.Load() }

// UseF16C reports whether the hardware FP16 converters should run right now.
func UseF16C() bool { return hasF16C && !disabled.Load() }

// SetDisabled forces (true) or releases (false) the scalar fallback for
// every SIMD kernel in the process, returning the previous setting.
// Releasing has no effect on hardware without the features.
func SetDisabled(d bool) bool { return disabled.Swap(d) }

// Disabled reports whether the runtime switch currently forces scalar.
func Disabled() bool { return disabled.Load() }
