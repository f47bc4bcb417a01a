#include "textflag.h"

// F16C vector conversion kernels. Every function processes 8 values per
// iteration and leaves the tail (n % 8) to the Go wrapper. The conversions
// are bit-identical to the software fromFloat32/Float32 reference:
// VCVTPS2PH with imm8=0 is round-to-nearest-even with saturation to ±Inf,
// denormal flush behaviour, and sNaN quieting matching the Go code, which
// the exhaustive parity tests in simd_test.go prove over the whole FP16
// space and directed FP32 boundary patterns.

// func roundTripF16C(x *float32, n int)
// Rounds n (a multiple of 8) float32s through FP16 in place — the FP16
// executor's per-op activation rounding.
TEXT ·roundTripF16C(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	SHRQ $3, CX
loop8:
	VMOVUPS    (SI), Y0
	VCVTPS2PH  $0, Y0, X1
	VCVTPH2PS  X1, Y0
	VMOVUPS    Y0, (SI)
	ADDQ       $32, SI
	DECQ       CX
	JNZ        loop8
	VZEROUPPER
	RET

// func packWordsF16C(src *float32, dst *float32, n int)
// Rounds n (a multiple of 8) float32s to FP16 and packs them two-per-word
// into dst (n/2 words) — the FP16 wire format's send side. The 8 packed
// halves of one iteration form exactly 4 words, so the vector store lines
// up with the scalar PackWords layout (little-endian lane order:
// word w = half(2w) | half(2w+1)<<16).
TEXT ·packWordsF16C(SB), NOSPLIT, $0-24
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
loop8:
	VMOVUPS    (SI), Y0
	VCVTPS2PH  $0, Y0, X1
	VMOVDQU    X1, (DI)
	ADDQ       $32, SI
	ADDQ       $16, DI
	DECQ       CX
	JNZ        loop8
	VZEROUPPER
	RET

// func unpackAddF16C(words *float32, dst *float32, n int)
// Unpacks n (a multiple of 8) FP16 values from wire words and accumulates
// them into dst in FP32 — the wire receive side. 8 halves = 4 words = one
// 16-byte load per iteration; the add is elementwise, so the result is
// bit-identical to the scalar reference.
TEXT ·unpackAddF16C(SB), NOSPLIT, $0-24
	MOVQ words+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
loop8:
	VMOVDQU    (SI), X0
	VCVTPH2PS  X0, Y1
	VMOVUPS    (DI), Y2
	VADDPS     Y1, Y2, Y2
	VMOVUPS    Y2, (DI)
	ADDQ       $16, SI
	ADDQ       $32, DI
	DECQ       CX
	JNZ        loop8
	VZEROUPPER
	RET

// func unpackWordsF16C(words *float32, dst *float32, n int)
// Unpacks n (a multiple of 8) FP16 values from wire words, overwriting dst.
TEXT ·unpackWordsF16C(SB), NOSPLIT, $0-24
	MOVQ words+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
loop8:
	VMOVDQU    (SI), X0
	VCVTPH2PS  X0, Y1
	VMOVUPS    Y1, (DI)
	ADDQ       $16, SI
	ADDQ       $32, DI
	DECQ       CX
	JNZ        loop8
	VZEROUPPER
	RET
