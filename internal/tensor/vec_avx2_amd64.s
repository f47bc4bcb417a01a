#include "textflag.h"

// Vectorized elementwise hot paths. Every float kernel here uses
// VMULPS+VADDPS — never FMA — so each element's arithmetic is the exact
// two-rounding sequence the scalar Go loops perform and the results are
// BIT-IDENTICAL to the scalar reference (the Go compiler does not fuse
// mul+add on amd64). Only dotAVX2 reassociates: it accumulates in four
// float64 lanes, where each float32 product is exactly representable, so
// the lane arithmetic is exact and only the summation ORDER differs from
// the scalar reference.

// func axpyAVX2(alpha float32, x, y *float32, n int)
// y[i] += alpha*x[i] for i in [0, n); n is a multiple of 8.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	SHRQ $3, CX
	JZ   axdone
axloop:
	VMULPS  (SI), Y0, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axloop
axdone:
	VZEROUPPER
	RET

// func scaleAVX2(alpha float32, x *float32, n int)
// x[i] *= alpha for i in [0, n); n is a multiple of 8.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-24
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	JZ   scdone
scloop:
	VMULPS  (SI), Y0, Y1
	VMOVUPS Y1, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNZ     scloop
scdone:
	VZEROUPPER
	RET

// func scaleAllFiniteAVX2(alpha float32, x *float32, n int) int32
// x[i] *= alpha for i in [0, n), n a multiple of 8; returns nonzero iff
// any scaled value is NaN or Inf. Non-finiteness is exponent-field
// all-ones: (bits & 0x7F800000) == 0x7F800000, tested with integer
// compares and OR-accumulated so the sweep never branches.
TEXT ·scaleAllFiniteAVX2(SB), NOSPLIT, $0-28
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	MOVL $0x7F800000, AX
	MOVD AX, X2
	VPBROADCASTD X2, Y2
	VPXOR Y3, Y3, Y3
	TESTQ CX, CX
	JZ   sfdone
sfloop:
	VMULPS  (SI), Y0, Y1
	VMOVUPS Y1, (SI)
	VPAND   Y2, Y1, Y1
	VPCMPEQD Y2, Y1, Y1
	VPOR    Y1, Y3, Y3
	ADDQ    $32, SI
	DECQ    CX
	JNZ     sfloop
sfdone:
	VMOVMSKPS Y3, AX
	MOVL AX, ret+24(FP)
	VZEROUPPER
	RET

// func dotAVX2(x, y *float32, n int) float64
// Σ float64(x[i])*float64(y[i]) over [0, n); n is a multiple of 8.
// Four-lane float64 accumulation in two chains; every float32 product is
// exact in float64 (24+24 < 53 mantissa bits), so FMA here rounds once on
// the add — identical per-element arithmetic to the scalar loop, with a
// fixed 8-way interleaved summation order.
TEXT ·dotAVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	TESTQ CX, CX
	JZ   dtdone
dtloop:
	VCVTPS2PD (SI), Y2
	VCVTPS2PD (DI), Y3
	VFMADD231PD Y3, Y2, Y0
	VCVTPS2PD 16(SI), Y4
	VCVTPS2PD 16(DI), Y5
	VFMADD231PD Y5, Y4, Y1
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  dtloop
dtdone:
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VUNPCKHPD X0, X0, X1
	VADDSD X1, X0, X0
	VZEROUPPER
	MOVSD X0, ret+24(FP)
	RET

// func gatherT8x8AVX2(src *float32, offs *int, dst *float32, dstStride int)
// dst[j*dstStride+i] = src[offs[i]+j] for an 8×8 tile: eight 8-float rows
// at arbitrary offsets (offs[i] = i·stride for a plain strided tile),
// transposed by the classic three-stage in-register recipe: unpack 32-bit
// pairs, shuffle 64-bit pairs, then swap 128-bit halves across the two YMM
// lanes.
TEXT ·gatherT8x8AVX2(SB), NOSPLIT, $0-32
	MOVQ src+0(FP), SI
	MOVQ offs+8(FP), R8
	MOVQ dst+16(FP), DI
	MOVQ dstStride+24(FP), BX
	SHLQ $2, BX

	MOVQ    0(R8), AX
	VMOVUPS (SI)(AX*4), Y0
	MOVQ    8(R8), AX
	VMOVUPS (SI)(AX*4), Y1
	MOVQ    16(R8), AX
	VMOVUPS (SI)(AX*4), Y2
	MOVQ    24(R8), AX
	VMOVUPS (SI)(AX*4), Y3
	MOVQ    32(R8), AX
	VMOVUPS (SI)(AX*4), Y4
	MOVQ    40(R8), AX
	VMOVUPS (SI)(AX*4), Y5
	MOVQ    48(R8), AX
	VMOVUPS (SI)(AX*4), Y6
	MOVQ    56(R8), AX
	VMOVUPS (SI)(AX*4), Y7

	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15

	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7

	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15

	VMOVUPS Y8, (DI)
	VMOVUPS Y9, (DI)(BX*1)
	LEAQ    (DI)(BX*2), DI
	VMOVUPS Y10, (DI)
	VMOVUPS Y11, (DI)(BX*1)
	LEAQ    (DI)(BX*2), DI
	VMOVUPS Y12, (DI)
	VMOVUPS Y13, (DI)(BX*1)
	LEAQ    (DI)(BX*2), DI
	VMOVUPS Y14, (DI)
	VMOVUPS Y15, (DI)(BX*1)
	VZEROUPPER
	RET
