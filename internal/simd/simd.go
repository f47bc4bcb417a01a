// Package simd centralizes CPU SIMD feature detection and the process-wide
// enable/disable switch shared by every hand-vectorized kernel in the repo
// (tensor's AVX2/FMA GEMM micro-kernels, hpfloat's F16C converters, the
// vectorized elementwise paths).
//
// Detection happens once at init via CPUID/XGETBV (no cgo, no external
// modules); the environment switch is read on first use. The kernels stay
// optional: every SIMD entry point has a portable scalar implementation
// with the same bits, and the switch can force the scalar path at runtime — `EXACLIM_NOSIMD=1` in the
// environment, or tensor.SetKernelISA programmatically — so the scalar
// kernels are exercised on AVX2 hosts too.
package simd

import (
	"os"
	"sync/atomic"
)

// Feature flags populated by the architecture-specific detector at init.
// They describe the hardware and never change after init; the runtime
// on/off decision layers the `state` switch on top.
var (
	hasAVX2 bool // AVX2 + FMA + OS YMM state support (the GEMM kernels)
	hasF16C bool // F16C + AVX + OS YMM state support (FP16 converters)
)

// Switch states. The zero value means EXACLIM_NOSIMD has not been read
// yet: the variable is read on the first query of the switch rather than
// at init, so that a test binary reads it after the test log is installed
// and `go test`'s result cache is keyed on it.
const (
	switchUnread int32 = iota
	switchEnabled
	switchDisabled
)

// state is the process-wide kill switch. It defaults to the
// EXACLIM_NOSIMD environment variable and is flipped by
// tensor.SetKernelISA.
var state atomic.Int32

func init() { detect() }

// fromEnv is the switch state the environment selects.
func fromEnv() int32 {
	if os.Getenv("EXACLIM_NOSIMD") == "1" {
		return switchDisabled
	}
	return switchEnabled
}

// forced reports whether the switch forces the scalar kernels, reading
// the environment on the first call. One atomic load once it is read.
func forced() bool {
	s := state.Load()
	if s == switchUnread {
		state.CompareAndSwap(switchUnread, fromEnv())
		s = state.Load()
	}
	return s == switchDisabled
}

// HasAVX2 reports whether the hardware supports the AVX2+FMA kernels
// (independent of the runtime switch).
func HasAVX2() bool { return hasAVX2 }

// UseAVX2 reports whether the AVX2+FMA kernels should run right now:
// hardware support and the runtime switch both allow it.
func UseAVX2() bool { return hasAVX2 && !forced() }

// UseF16C reports whether the hardware FP16 converters should run right now.
func UseF16C() bool { return hasF16C && !forced() }

// SetDisabled forces (true) or releases (false) the scalar fallback for
// every SIMD kernel in the process, returning the previous setting.
// Releasing has no effect on hardware without the features.
func SetDisabled(d bool) bool {
	s := switchEnabled
	if d {
		s = switchDisabled
	}
	prev := state.Swap(s)
	if prev == switchUnread {
		prev = fromEnv()
	}
	return prev == switchDisabled
}
