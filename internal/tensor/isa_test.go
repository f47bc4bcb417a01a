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
