package tensor

import (
	"fmt"
	"math"
)

// INT8 GEMM — the quantized inference kernel behind the serving stack's
// INT8 precision. Weights arrive as symmetric int8 codes with one scale
// per output channel (compress.QuantizeSymInt8); the activation panel is
// quantized dynamically per call with a single tensor-wide scale
// (QuantizeActInt8). The multiply-accumulate runs entirely in int32 —
// exact, since |code| ≤ 127 bounds every product by 127² and the K depth
// is checked against int32 overflow — so the only rounding is the two
// quantizations and the final dequantizing multiply. That makes the kernel
// deterministic and batch-invariant: a tile's logits do not depend on its
// batch neighbors, exactly like the FP32 path.

// maxInt8GemmK bounds the reduction depth so the int32 accumulator cannot
// overflow: k·127² must stay below 2³¹−1.
const maxInt8GemmK = (1<<31 - 1) / (127 * 127)

// int8Strip is the column width of gemmInt8Rows' int32 accumulator, which
// lives on the stack: 2 KB, so a row strip stays in L1 while the K loop
// streams B against it.
const int8Strip = 512

// QuantizeActInt8 quantizes a float32 activation panel to symmetric int8
// codes with one dynamic per-tensor scale (maxAbs/127) and returns that
// scale. A zero panel returns scale 0 with all-zero codes. Non-finite
// activations deterministically produce code 0 and a non-finite scale, so
// the dequantized output is non-finite — garbage-in-garbage-out, matching
// the FP32 kernels, never a silent wrong-but-plausible mask.
func QuantizeActInt8(src []float32, dst []int8) float32 {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("tensor: QuantizeActInt8 dst %d < src %d", len(dst), len(src)))
	}
	var maxAbs float32
	for _, v := range src {
		if v != v || v > math.MaxFloat32 || v < -math.MaxFloat32 {
			clear(dst[:len(src)])
			return float32(math.NaN())
		}
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	scale := maxAbs / 127
	if scale == 0 {
		clear(dst[:len(src)])
		return 0
	}
	inv := 1 / float64(scale)
	for i, v := range src[:len(src)] {
		code := math.Round(float64(v) * inv)
		switch {
		case code >= 127:
			dst[i] = 127
		case code <= -127:
			dst[i] = -127
		default:
			dst[i] = int8(code)
		}
	}
	return scale
}

// GemmInt8 computes the dequantized product of two int8 code matrices:
//
//	C[i,j] = aScales[i] · bScale · Σ_p A[i,p]·B[p,j]
//
// A is m×k row-major (weight codes, one scale per row — the output
// channel), B is k×n row-major (the quantized activation panel, one scale
// for the whole panel). C is overwritten (beta=0 semantics; it may be
// uninitialized pool memory). The accumulation is exact in int32; the row
// is dequantized once, in cache, after its reduction completes.
func GemmInt8(m, n, k int, a []int8, aScales []float32, b []int8, bScale float32, c []float32) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("tensor: GemmInt8 negative dims m=%d n=%d k=%d", m, n, k))
	}
	if k > maxInt8GemmK {
		panic(fmt.Sprintf("tensor: GemmInt8 k=%d would overflow int32 accumulation (max %d)", k, maxInt8GemmK))
	}
	if len(a) < m*k || len(b) < k*n || len(c) < m*n || len(aScales) < m {
		panic("tensor: GemmInt8 operand too short")
	}
	if m == 0 || n == 0 {
		return
	}
	if chunks := fanout(m, 2*m*n*k); chunks > 1 {
		parallelFor(m, chunks, func(lo, hi int) { gemmInt8Rows(lo, hi, n, k, a, aScales, b, bScale, c) })
		return
	}
	gemmInt8Rows(0, m, n, k, a, aScales, b, bScale, c)
}

// gemmInt8Rows computes C rows [lo, hi), each in int8Strip-column strips:
// 4-deep unrolled int32 axpy over the B panel with an all-zero
// weight-group skip, then the dequantizing epilogue. Integer sums are
// exact, so the strip width does not change a single output bit.
func gemmInt8Rows(lo, hi, n, k int, a []int8, aScales []float32, b []int8, bScale float32, c []float32) {
	var strip [int8Strip]int32
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		s := aScales[i] * bScale
		for j0 := 0; j0 < n; j0 += int8Strip {
			acc := strip[:min(int8Strip, n-j0)]
			clear(acc)
			w := len(acc)
			p := 0
			var av [4]int32
			for ; p+3 < k; p += 4 {
				a0 := int32(ai[p])
				a1 := int32(ai[p+1])
				a2 := int32(ai[p+2])
				a3 := int32(ai[p+3])
				if a0|a1|a2|a3 == 0 {
					continue
				}
				b0 := b[p*n+j0 : p*n+j0+w]
				b1 := b[(p+1)*n+j0 : (p+1)*n+j0+w]
				b2 := b[(p+2)*n+j0 : (p+2)*n+j0+w]
				b3 := b[(p+3)*n+j0 : (p+3)*n+j0+w]
				// AVX2 quad-axpy (sign-extend + VPMULLD + VPADDD): exact int32
				// arithmetic, so the vector prefix is bit-identical to the
				// scalar loop — the INT8 path has no ISA tolerance at all.
				av[0], av[1], av[2], av[3] = a0, a1, a2, a3
				j := simdInt8AxpyQuad(&av, b0, b1, b2, b3, acc)
				for ; j < w; j++ {
					acc[j] += a0*int32(b0[j]) + a1*int32(b1[j]) + a2*int32(b2[j]) + a3*int32(b3[j])
				}
			}
			for ; p < k; p++ {
				ap := int32(ai[p])
				if ap == 0 {
					continue
				}
				bp := b[p*n+j0 : p*n+j0+w]
				for j := range acc {
					acc[j] += ap * int32(bp[j])
				}
			}
			ci := c[i*n+j0 : i*n+j0+w]
			for j, v := range acc {
				ci[j] = float32(v) * s
			}
		}
	}
}
