package tensor

import (
	"testing"

	"repro/internal/simd"
)

func TestParseISARoundTrip(t *testing.T) {
	for _, isa := range []KernelISA{ISAAuto, ISAScalar, ISAAVX2} {
		got, err := ParseISA(isa.String())
		if err != nil || got != isa {
			t.Fatalf("ParseISA(%q) = %v, %v", isa.String(), got, err)
		}
	}
	if _, err := ParseISA("sse9"); err == nil {
		t.Fatal("ParseISA accepted garbage")
	}
	if isa, err := ParseISA(""); err != nil || isa != ISAAuto {
		t.Fatalf("ParseISA(\"\") = %v, %v; want auto", isa, err)
	}
}

func TestSetKernelISA(t *testing.T) {
	orig := ActiveISA()
	defer SetKernelISA(orig)

	if _, err := SetKernelISA(ISAScalar); err != nil {
		t.Fatalf("forcing scalar failed: %v", err)
	}
	if ActiveISA() != ISAScalar {
		t.Fatalf("ActiveISA() = %v after forcing scalar", ActiveISA())
	}
	if simd.HasAVX2() {
		prev, err := SetKernelISA(ISAAVX2)
		if err != nil {
			t.Fatalf("forcing avx2 on avx2 hardware failed: %v", err)
		}
		if prev != ISAScalar {
			t.Fatalf("previous ISA = %v, want scalar", prev)
		}
		if ActiveISA() != ISAAVX2 {
			t.Fatalf("ActiveISA() = %v after forcing avx2", ActiveISA())
		}
	} else {
		if _, err := SetKernelISA(ISAAVX2); err == nil {
			t.Fatal("forcing avx2 on non-avx2 hardware should error")
		}
	}
	if _, err := SetKernelISA(KernelISA(99)); err == nil {
		t.Fatal("invalid ISA should error")
	}
}

// TestGemmUsesSmallPathISAAware: the dispatch predicate must follow the
// active ISA — ConvGemm picks its route off it, and a mismatch with
// Gemm's real dispatch would silently break the conv-vs-im2col bit-parity
// contract.
func TestGemmUsesSmallPathISAAware(t *testing.T) {
	orig := ActiveISA()
	defer SetKernelISA(orig)

	SetKernelISA(ISAScalar)
	// Mid-size shape: small under the scalar crossover (2¹⁸), blocked
	// under the AVX2 one (2¹⁰).
	if !GemmUsesSmallPath(32, 32, 32) {
		t.Fatal("32³ should be small-path under the scalar ISA")
	}
	// Single-row products stay on the small path under every ISA.
	if !GemmUsesSmallPath(1, 4096, 4096) {
		t.Fatal("m=1 should be small-path under the scalar ISA")
	}
	if simd.HasAVX2() {
		SetKernelISA(ISAAVX2)
		if GemmUsesSmallPath(32, 32, 32) {
			t.Fatal("32³ should be blocked under the AVX2 ISA")
		}
		if !GemmUsesSmallPath(1, 4096, 4096) {
			t.Fatal("m=1 should be small-path under the AVX2 ISA")
		}
		if !GemmUsesSmallPath(4, 8, 8) {
			t.Fatal("tiny shapes should be small-path under the AVX2 ISA")
		}
	}
}

func TestKernelInfo(t *testing.T) {
	info := Kernel()
	if info.ISA != ActiveISA().String() {
		t.Fatalf("KernelInfo ISA %q != active %q", info.ISA, ActiveISA())
	}
	switch ActiveISA() {
	case ISAAVX2:
		if info.GemmMR != avxMR || info.GemmNR != avxNR || info.SmallPath != gemmSmallMNKAVX2 {
			t.Fatalf("AVX2 KernelInfo geometry wrong: %+v", info)
		}
	case ISAScalar:
		if info.GemmMR != gemmMR || info.GemmNR != gemmNR || info.SmallPath != gemmSmallMNKScalar {
			t.Fatalf("scalar KernelInfo geometry wrong: %+v", info)
		}
	}
	if info.Workers != Parallelism() {
		t.Fatalf("KernelInfo workers %d != %d", info.Workers, Parallelism())
	}
}
