#include "textflag.h"

// AVX2+FMA GEMM micro-kernels over BLIS-style packed panels.
//
// Packed layouts (see packA6/packB16 in gemm.go):
//   A strip: ap[p*6 + i]  — 6 rows interleaved per K step
//   B strip: bp[p*16 + j] — 16 columns interleaved per K step
//
// The 6×16 register tile uses 12 YMM accumulators (rows 0..5 × two 8-lane
// column halves), two B loads and two rotating A broadcasts per K step:
// 12 FMAs per iteration, the full FMA-port width of one core.
//
// The full-tile kernel (gemmKern6x16) applies the alpha/beta epilogue
// itself; edge tiles go through gemmAcc6x16, which stores the raw 6×16
// accumulator for a masked Go epilogue (the "masked-edge variant": packing
// zero-pads the panels, so lanes beyond the edge hold zeros and the Go
// code simply writes the mEdge×nEdge region). The epilogues use
// VMULPS+VADDPS — never FMA — so a full tile and an edge tile round their
// epilogue arithmetic identically. Each accumulator lane is one in-order
// FMA chain from +0 over the K block, which the scalar kernel reproduces
// with an exact fma32: the two ISAs agree bit for bit.

// K-accumulation loop shared by both kernels: CX = kc, SI = ap, DI = bp.
// Clobbers Y12..Y15, leaves the tile in Y0..Y11. The gklp/gkdone labels
// are function-scoped, so the macro may appear once per TEXT block.
#define GEMM_KLOOP \
	VXORPS Y0, Y0, Y0   \
	VXORPS Y1, Y1, Y1   \
	VXORPS Y2, Y2, Y2   \
	VXORPS Y3, Y3, Y3   \
	VXORPS Y4, Y4, Y4   \
	VXORPS Y5, Y5, Y5   \
	VXORPS Y6, Y6, Y6   \
	VXORPS Y7, Y7, Y7   \
	VXORPS Y8, Y8, Y8   \
	VXORPS Y9, Y9, Y9   \
	VXORPS Y10, Y10, Y10 \
	VXORPS Y11, Y11, Y11 \
	TESTQ CX, CX        \
	JZ    gkdone        \
gklp:                       \
	VMOVUPS (DI), Y12       \
	VMOVUPS 32(DI), Y13     \
	VBROADCASTSS (SI), Y14  \
	VFMADD231PS Y12, Y14, Y0 \
	VFMADD231PS Y13, Y14, Y1 \
	VBROADCASTSS 4(SI), Y15 \
	VFMADD231PS Y12, Y15, Y2 \
	VFMADD231PS Y13, Y15, Y3 \
	VBROADCASTSS 8(SI), Y14 \
	VFMADD231PS Y12, Y14, Y4 \
	VFMADD231PS Y13, Y14, Y5 \
	VBROADCASTSS 12(SI), Y15 \
	VFMADD231PS Y12, Y15, Y6 \
	VFMADD231PS Y13, Y15, Y7 \
	VBROADCASTSS 16(SI), Y14 \
	VFMADD231PS Y12, Y14, Y8 \
	VFMADD231PS Y13, Y14, Y9 \
	VBROADCASTSS 20(SI), Y15 \
	VFMADD231PS Y12, Y15, Y10 \
	VFMADD231PS Y13, Y15, Y11 \
	ADDQ $24, SI            \
	ADDQ $64, DI            \
	DECQ CX                 \
	JNZ  gklp               \
gkdone:

// One row of the mode-0 epilogue: C += alpha*acc (mul then add, matching
// the scalar two-rounding form).
#define EPI_ACCUM_ROW(acclo, acchi) \
	VMULPS  acclo, Y12, Y14 \
	VMOVUPS (BX), Y15       \
	VADDPS  Y15, Y14, Y14   \
	VMOVUPS Y14, (BX)       \
	VMULPS  acchi, Y12, Y14 \
	VMOVUPS 32(BX), Y15     \
	VADDPS  Y15, Y14, Y14   \
	VMOVUPS Y14, 32(BX)     \
	ADDQ    DX, BX

// One row of the mode-1 epilogue: C = alpha*acc (beta==0 on the first K
// block: C is never read).
#define EPI_STORE_ROW(acclo, acchi) \
	VMULPS  acclo, Y12, Y14 \
	VMOVUPS Y14, (BX)       \
	VMULPS  acchi, Y12, Y14 \
	VMOVUPS Y14, 32(BX)     \
	ADDQ    DX, BX

// One row of the mode-2 epilogue: C = beta*C + alpha*acc.
#define EPI_BLEND_ROW(acclo, acchi) \
	VMOVUPS (BX), Y15       \
	VMULPS  Y15, Y13, Y15   \
	VMULPS  acclo, Y12, Y14 \
	VADDPS  Y14, Y15, Y14   \
	VMOVUPS Y14, (BX)       \
	VMOVUPS 32(BX), Y15     \
	VMULPS  Y15, Y13, Y15   \
	VMULPS  acchi, Y12, Y14 \
	VADDPS  Y14, Y15, Y14   \
	VMOVUPS Y14, 32(BX)     \
	ADDQ    DX, BX

// func gemmKern6x16(kc int, ap, bp *float32, alpha, beta float32, mode int, c *float32, ldc int)
// mode: 0 = accumulate (C += alpha*acc), 1 = overwrite (C = alpha*acc),
// 2 = blend (C = beta*C + alpha*acc).
TEXT ·gemmKern6x16(SB), NOSPLIT, $0-56
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	GEMM_KLOOP

	VBROADCASTSS alpha+24(FP), Y12
	MOVQ c+40(FP), BX
	MOVQ ldc+48(FP), DX
	SHLQ $2, DX
	MOVQ mode+32(FP), AX
	CMPQ AX, $1
	JE   overwrite
	CMPQ AX, $2
	JE   blend

	EPI_ACCUM_ROW(Y0, Y1)
	EPI_ACCUM_ROW(Y2, Y3)
	EPI_ACCUM_ROW(Y4, Y5)
	EPI_ACCUM_ROW(Y6, Y7)
	EPI_ACCUM_ROW(Y8, Y9)
	EPI_ACCUM_ROW(Y10, Y11)
	VZEROUPPER
	RET

overwrite:
	EPI_STORE_ROW(Y0, Y1)
	EPI_STORE_ROW(Y2, Y3)
	EPI_STORE_ROW(Y4, Y5)
	EPI_STORE_ROW(Y6, Y7)
	EPI_STORE_ROW(Y8, Y9)
	EPI_STORE_ROW(Y10, Y11)
	VZEROUPPER
	RET

blend:
	VBROADCASTSS beta+28(FP), Y13
	EPI_BLEND_ROW(Y0, Y1)
	EPI_BLEND_ROW(Y2, Y3)
	EPI_BLEND_ROW(Y4, Y5)
	EPI_BLEND_ROW(Y6, Y7)
	EPI_BLEND_ROW(Y8, Y9)
	EPI_BLEND_ROW(Y10, Y11)
	VZEROUPPER
	RET

// func gemmAcc6x16(kc int, ap, bp, acc *float32)
// Raw-accumulator variant for masked edge tiles: same K loop, the 6×16
// tile is stored contiguously into acc[96] and the Go caller applies the
// alpha/beta epilogue to the live mEdge×nEdge region.
TEXT ·gemmAcc6x16(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	GEMM_KLOOP

	MOVQ acc+24(FP), BX
	VMOVUPS Y0, (BX)
	VMOVUPS Y1, 32(BX)
	VMOVUPS Y2, 64(BX)
	VMOVUPS Y3, 96(BX)
	VMOVUPS Y4, 128(BX)
	VMOVUPS Y5, 160(BX)
	VMOVUPS Y6, 192(BX)
	VMOVUPS Y7, 224(BX)
	VMOVUPS Y8, 256(BX)
	VMOVUPS Y9, 288(BX)
	VMOVUPS Y10, 320(BX)
	VMOVUPS Y11, 352(BX)
	VZEROUPPER
	RET

// func int8AxpyQuad(n int, av *int32, b0, b1, b2, b3 *int8, acc *int32)
// acc[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] for j in [0, n&^7).
// Pure int32 arithmetic (sign-extend, VPMULLD, VPADDD): products are
// bounded by 127², so the accumulation is exact and BIT-IDENTICAL to the
// scalar reference regardless of order — the INT8 path's contract.
TEXT ·int8AxpyQuad(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), CX
	SHRQ $3, CX
	MOVQ av+8(FP), AX
	VPBROADCASTD (AX), Y8
	VPBROADCASTD 4(AX), Y9
	VPBROADCASTD 8(AX), Y10
	VPBROADCASTD 12(AX), Y11
	MOVQ b0+16(FP), SI
	MOVQ b1+24(FP), DI
	MOVQ b2+32(FP), R8
	MOVQ b3+40(FP), R9
	MOVQ acc+48(FP), BX
i8loop:
	VPMOVSXBD (SI), Y0
	VPMOVSXBD (DI), Y1
	VPMOVSXBD (R8), Y2
	VPMOVSXBD (R9), Y3
	VPMULLD Y8, Y0, Y0
	VPMULLD Y9, Y1, Y1
	VPMULLD Y10, Y2, Y2
	VPMULLD Y11, Y3, Y3
	VPADDD Y1, Y0, Y0
	VPADDD Y3, Y2, Y2
	VPADDD Y2, Y0, Y0
	VMOVDQU (BX), Y4
	VPADDD Y4, Y0, Y0
	VMOVDQU Y0, (BX)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $32, BX
	DECQ CX
	JNZ  i8loop
	VZEROUPPER
	RET

// func fmaPeakProbe(iters int)
// 12 independent 8-lane FMA chains on registers — the machine's FMA peak
// with no memory traffic. 12·8·2 = 192 FLOPs per iteration; benchmarks
// time it to turn GEMM GFLOP/s into a %-of-peak figure.
TEXT ·fmaPeakProbe(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
	TESTQ CX, CX
	JZ   probedone
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
probeloop:
	VFMADD231PS Y12, Y13, Y0
	VFMADD231PS Y12, Y13, Y1
	VFMADD231PS Y12, Y13, Y2
	VFMADD231PS Y12, Y13, Y3
	VFMADD231PS Y12, Y13, Y4
	VFMADD231PS Y12, Y13, Y5
	VFMADD231PS Y12, Y13, Y6
	VFMADD231PS Y12, Y13, Y7
	VFMADD231PS Y12, Y13, Y8
	VFMADD231PS Y12, Y13, Y9
	VFMADD231PS Y12, Y13, Y10
	VFMADD231PS Y12, Y13, Y11
	DECQ CX
	JNZ  probeloop
probedone:
	VZEROUPPER
	RET
