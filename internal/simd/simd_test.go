package simd

import "testing"

func TestDisableSwitch(t *testing.T) {
	prev := SetDisabled(false)
	defer SetDisabled(prev)

	if UseAVX2() != HasAVX2() || UseF16C() != hasF16C {
		t.Fatal("enabled Use* must mirror hardware Has*")
	}
	if was := SetDisabled(true); was {
		t.Fatal("SetDisabled(true) reported previous=true after SetDisabled(false)")
	}
	if UseAVX2() || UseF16C() {
		t.Fatal("Use* must be false while disabled")
	}
	hwAVX2 := HasAVX2()
	SetDisabled(false)
	if HasAVX2() != hwAVX2 {
		t.Fatal("Has* must not be affected by the switch")
	}
}

func TestDetectConsistency(t *testing.T) {
	// AVX2 kernels require FMA+YMM state; F16C requires AVX. Both are
	// OS-gated the same way, so on any machine where AVX2 detection
	// passed, F16C is expected too (every AVX2+FMA part ships F16C). This
	// is a sanity check of the detector's gating, not an ISA law.
	if hasAVX2 && !hasF16C {
		t.Log("AVX2 without F16C — unusual hardware, kernels still gated independently")
	}
}
