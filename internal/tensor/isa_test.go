package tensor

import (
	"testing"

	"repro/internal/simd"
)

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

func TestKernelInfo(t *testing.T) {
	info := Kernel()
	if info.ISA != ActiveISA().String() {
		t.Fatalf("KernelInfo ISA %q != active %q", info.ISA, ActiveISA())
	}
	switch ActiveISA() {
	case ISAAVX2:
		if info.GemmMR != avxMR || info.GemmNR != avxNR {
			t.Fatalf("AVX2 KernelInfo geometry wrong: %+v", info)
		}
	case ISAScalar:
		if info.GemmMR != gemmMR || info.GemmNR != gemmNR {
			t.Fatalf("scalar KernelInfo geometry wrong: %+v", info)
		}
	}
	if info.Workers != Parallelism() {
		t.Fatalf("KernelInfo workers %d != %d", info.Workers, Parallelism())
	}
}
